//! Exact percentiles and the bit-exact result check.

use sat_core::Matrix;

/// Exact nearest-rank percentiles of a set of latency samples, in ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    pub count: usize,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

/// The nearest-rank `q`-quantile of ascending `sorted`: the smallest sample
/// with at least `q·n` samples at or below it. Never interpolates, so it is
/// always one of the samples.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl Percentiles {
    /// Sorts `samples` in place.
    pub fn of(samples: &mut [u64]) -> Percentiles {
        samples.sort_unstable();
        Percentiles {
            count: samples.len(),
            p50: nearest_rank(samples, 0.50),
            p90: nearest_rank(samples, 0.90),
            p99: nearest_rank(samples, 0.99),
            max: *samples.last().expect("no samples"),
        }
    }

    /// The self-check each run makes: `p50 ≤ p90 ≤ p99 ≤ max`.
    pub fn ordered(&self) -> bool {
        self.p50 <= self.p90 && self.p90 <= self.p99 && self.p99 <= self.max
    }
}

/// One completed call: when it ended (ns after the loop started), how
/// long it took, and the unpadded elements it produced (0 if it failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_ns: u64,
    pub elements: u64,
}

/// Equal time windows a timed phase is split into.
pub const WINDOWS: usize = 10;

/// Medians over the windows of each window's exact percentiles (ns) and
/// throughput, so a burst of host noise in a few windows does not move
/// the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub melem_per_s: f64,
}

impl Windowed {
    /// Split `[0, wall_ns)` into [`WINDOWS`] equal windows (the last one
    /// also takes calls that ended after `wall_ns`) and assign each sample
    /// to the window it ended in. Windows without samples count as zero
    /// throughput and add no percentiles.
    pub fn of(samples: &[Sample], wall_ns: u64) -> Windowed {
        let len = (wall_ns / WINDOWS as u64).max(1);
        let mut lat = vec![Vec::new(); WINDOWS];
        let mut elts = [0u64; WINDOWS];
        for s in samples {
            let i = ((s.done_ns / len) as usize).min(WINDOWS - 1);
            lat[i].push(s.latency_ns);
            elts[i] += s.elements;
        }
        let per: Vec<Percentiles> = lat
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| Percentiles::of(v))
            .collect();
        let med = |f: fn(&Percentiles) -> u64| {
            median(&mut per.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
        };
        let last_len = wall_ns.saturating_sub(len * (WINDOWS as u64 - 1)).max(len);
        let mut tput: Vec<f64> = (0..WINDOWS)
            .map(|i| {
                let ns = if i == WINDOWS - 1 { last_len } else { len };
                // elements per ns = 1e3 Melem/s.
                elts[i] as f64 / ns as f64 * 1e3
            })
            .collect();
        Windowed {
            p50: med(|p| p.p50),
            p90: med(|p| p.p90),
            p99: med(|p| p.p99),
            melem_per_s: median(&mut tput),
        }
    }

    /// `p50 ≤ p90 ≤ p99 ≤ max`, with `max` over the whole phase.
    pub fn ordered(&self, max: u64) -> bool {
        self.p50 <= self.p90 && self.p90 <= self.p99 && self.p99 <= max as f64
    }
}

/// Median of `v` (mean of the middle pair for even lengths); sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Whether `got` is bit-for-bit `want` (same shape, same f64 bit patterns).
pub fn bit_exact(got: &Matrix<f64>, want: &Matrix<f64>) -> bool {
    got.rows() == want.rows()
        && got.cols() == want.cols()
        && got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Whether the top-left `want.rows() × want.cols()` region of the
/// row-major `padded` buffer (row stride `pcols`) is bit-for-bit `want`.
pub fn bit_exact_region(padded: &[f64], pcols: usize, want: &Matrix<f64>) -> bool {
    (0..want.rows()).all(|i| {
        let row = &padded[i * pcols..i * pcols + want.cols()];
        row.iter()
            .zip(want.row(i))
            .all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SplitMix64;

    #[test]
    fn percentiles_of_known_vectors() {
        let mut v: Vec<u64> = (1..=100).collect();
        let p = Percentiles::of(&mut v);
        assert_eq!(
            (p.count, p.p50, p.p90, p.p99, p.max),
            (100, 50, 90, 99, 100)
        );

        let mut one = vec![7];
        let p = Percentiles::of(&mut one);
        assert_eq!((p.p50, p.p90, p.p99, p.max), (7, 7, 7, 7));

        // 1000 samples: p99 is the 990th, leaving ten samples beyond it.
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        let p = Percentiles::of(&mut v);
        assert_eq!((p.p50, p.p90, p.p99, p.max), (500, 900, 990, 1000));

        // A heavy tail moves p99 and max but never past max.
        let mut v = vec![1, 1, 1, 1, 1, 1, 1, 1, 1, 1_000_000];
        let p = Percentiles::of(&mut v);
        assert_eq!((p.p50, p.p90, p.p99, p.max), (1, 1, 1_000_000, 1_000_000));
    }

    #[test]
    fn percentiles_of_random_vectors_are_ordered_samples() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..500 {
            let n = 1 + rng.below(3000);
            let spread = 1 + rng.below(1 << 20) as u64;
            let mut v: Vec<u64> = (0..n).map(|_| rng.next_u64() % spread).collect();
            let max = *v.iter().max().unwrap();
            let original = v.clone();
            let p = Percentiles::of(&mut v);
            assert!(p.ordered(), "{p:?}");
            assert_eq!(p.max, max);
            for q in [p.p50, p.p90, p.p99] {
                assert!(q <= max);
                assert!(original.contains(&q), "a percentile is always a sample");
            }
            // At least half the samples are at or below p50.
            assert!(2 * original.iter().filter(|&&x| x <= p.p50).count() >= n);
        }
    }

    #[test]
    fn windowed_medians_ignore_a_burst_and_stay_ordered() {
        // 10 windows of 1 ms, 200 calls each of 10 µs, 1000 elements per
        // call; window 3 suffers a burst where every call takes 500 µs.
        let mut samples = Vec::new();
        for w in 0..10u64 {
            for k in 0..200u64 {
                let latency_ns = if w == 3 { 500_000 } else { 10_000 + k };
                samples.push(Sample {
                    done_ns: w * 1_000_000 + k * 5_000,
                    latency_ns,
                    elements: 1000,
                });
            }
        }
        let win = Windowed::of(&samples, 10_000_000);
        assert_eq!((win.p50, win.p90, win.p99), (10_099.0, 10_179.0, 10_197.0));
        // 200 × 1000 elements per 1 ms window = 200 Melem/s.
        assert!((win.melem_per_s - 200.0).abs() < 1e-9);
        assert!(win.ordered(500_000));
        assert!(!win.ordered(10_000));

        // Random phases: windowed medians stay ordered and below the max.
        let mut rng = SplitMix64::new(9);
        for _ in 0..200 {
            let wall = 1 + rng.next_u64() % 1_000_000;
            let n = 1 + rng.below(2000);
            let samples: Vec<Sample> = (0..n)
                .map(|_| Sample {
                    done_ns: rng.next_u64() % (wall + wall / 10 + 1),
                    latency_ns: rng.next_u64() % 100_000,
                    elements: rng.next_u64() % 5000,
                })
                .collect();
            let max = samples.iter().map(|s| s.latency_ns).max().unwrap();
            let win = Windowed::of(&samples, wall);
            assert!(win.ordered(max), "{win:?} max {max}");
            assert!(win.melem_per_s.is_finite() && win.melem_per_s >= 0.0);
        }
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn checker_flags_a_single_flipped_bit() {
        let mut rng = SplitMix64::new(1);
        let a = crate::workload::image(&mut rng, 33, 17);
        assert!(bit_exact(&a, &a.clone()));
        for (i, j, bit) in [(0, 0, 0), (32, 16, 63), (5, 9, 17)] {
            let mut b = a.clone();
            b.set(i, j, f64::from_bits(a.get(i, j).to_bits() ^ (1 << bit)));
            assert!(!bit_exact(&b, &a), "flip of bit {bit} at ({i}, {j})");
        }
        // Same values, other shape.
        let t = Matrix::from_vec(17, 33, a.as_slice().to_vec());
        assert!(!bit_exact(&t, &a));
        // +0.0 and -0.0 compare equal as floats but differ in bits.
        let z = Matrix::from_vec(1, 1, vec![0.0]);
        let nz = Matrix::from_vec(1, 1, vec![-0.0]);
        assert!(!bit_exact(&nz, &z));
    }

    #[test]
    fn region_checker_ignores_padding_and_flags_a_flipped_bit() {
        let mut rng = SplitMix64::new(2);
        let want = crate::workload::image(&mut rng, 3, 5);
        let mut padded = vec![9.0; 4 * 8];
        for i in 0..3 {
            padded[i * 8..i * 8 + 5].copy_from_slice(want.row(i));
        }
        assert!(bit_exact_region(&padded, 8, &want));
        padded[2 * 8 + 4] = f64::from_bits(padded[2 * 8 + 4].to_bits() ^ 1);
        assert!(!bit_exact_region(&padded, 8, &want));
    }
}
