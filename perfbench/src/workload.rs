//! The named workloads and their seeded inputs.

use hmm_model::cost::SatAlgorithm;
use obs::Obs;
use sat_core::{seq, Matrix};
use sat_service::{ResilienceConfig, ServiceConfig, VerifyMode};

/// One request shape of a workload and the algorithm it asks for.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    pub rows: usize,
    pub cols: usize,
    pub algorithm: SatAlgorithm,
}

impl Kind {
    /// Unpadded input elements.
    pub fn elements(&self) -> usize {
        self.rows * self.cols
    }

    /// The shape `compute_sat` pads to on a width-`w` machine.
    pub fn padded(&self, w: usize) -> (usize, usize) {
        (self.rows.next_multiple_of(w), self.cols.next_multiple_of(w))
    }
}

/// What the timed closed loop calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `sat_core::compute_sat` on a default `gpu_exec::Device`.
    Library,
    /// `sat_service::Client::submit` on a running `Service`.
    Service,
}

/// A named workload: a closed loop of `clients` callers drawing requests
/// uniformly from `kinds`.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub target: Target,
    pub kinds: &'static [Kind],
    /// Closed-loop callers; capped at the host's parallelism.
    pub clients: usize,
    /// Service device shards (ignored by the library target).
    pub shards: usize,
    /// Service verification mode (ignored by the library target).
    pub verify: VerifyMode,
    /// Distinct seeded images generated per kind.
    pub inputs_per_kind: usize,
}

const fn kind(rows: usize, cols: usize, algorithm: SatAlgorithm) -> Kind {
    Kind {
        rows,
        cols,
        algorithm,
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them. The README
/// gives the reason each one exists.
pub const WORKLOADS: &[Workload] = &[
    // Per-element emulation dominates; no service layer runs, and the
    // 8 MB image does not fit in L2.
    Workload {
        name: "lib-1r1w-n1024",
        target: Target::Library,
        kinds: &[kind(1024, 1024, SatAlgorithm::OneR1W)],
        clients: 1,
        shards: 1,
        verify: VerifyMode::Auto,
        inputs_per_kind: 3,
    },
    // Admission, batch formation, linger and reply dominate; the kernel is
    // a minority of each request and the working set fits in L2.
    Workload {
        name: "serve-n64-closed",
        target: Target::Service,
        kinds: &[kind(64, 64, SatAlgorithm::OneR1W)],
        clients: 2,
        shards: 1,
        verify: VerifyMode::Auto,
        inputs_per_kind: 64,
    },
    // The fleet executor, unbatched dispatch, the O(n²) verification sweep
    // and padding of shapes that are not multiples of w.
    Workload {
        name: "serve-mixed-fleet",
        target: Target::Service,
        kinds: &[
            kind(256, 256, SatAlgorithm::OneR1W),
            kind(200, 120, SatAlgorithm::OneR1W),
            kind(97, 301, SatAlgorithm::TwoR1W),
            kind(160, 160, SatAlgorithm::HybridR1W),
        ],
        clients: 2,
        shards: 2,
        verify: VerifyMode::Always,
        inputs_per_kind: 8,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's service configuration: the defaults (w = 32,
    /// max_batch 16, linger 500 µs) with its shard count, the given
    /// verification mode and observer.
    pub fn service_config(&self, verify: VerifyMode, observer: Obs) -> ServiceConfig {
        ServiceConfig {
            shards: self.shards,
            observer,
            resilience: ResilienceConfig {
                verify,
                ..ResilienceConfig::default()
            },
            ..ServiceConfig::default()
        }
    }

    /// Unpadded elements of one pass over the kinds (one request of each).
    pub fn pass_elements(&self) -> usize {
        self.kinds.iter().map(Kind::elements).sum()
    }
}

/// SplitMix64: a small, seedable generator, so inputs depend on the seed
/// argument alone.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One generated image and its reference SAT.
pub struct Input {
    pub kind: usize,
    pub image: Matrix<f64>,
    pub expected: Matrix<f64>,
}

/// A workload's generated images and the seeded request order over them.
pub struct Inputs {
    pub items: Vec<Input>,
    /// Indices into `items`; callers walk it cyclically from staggered
    /// offsets.
    pub order: Vec<usize>,
}

const ORDER_LEN: usize = 4096;

/// A `rows × cols` image of integer-valued f64 in `[0, 255]`. Every prefix
/// sum of such an image is an exactly representable integer, so any
/// summation order gives a bit-identical SAT.
pub fn image(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| rng.below(256) as f64)
}

/// Generate the workload's images, their reference SATs (computed here,
/// before anything is timed) and the request order.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let mut items = Vec::with_capacity(w.kinds.len() * w.inputs_per_kind);
    for (k, kd) in w.kinds.iter().enumerate() {
        for _ in 0..w.inputs_per_kind {
            let image = image(&mut rng, kd.rows, kd.cols);
            let expected = seq::sat_reference(&image);
            items.push(Input {
                kind: k,
                image,
                expected,
            });
        }
    }
    let order = (0..ORDER_LEN)
        .map(|_| rng.below(w.kinds.len()) * w.inputs_per_kind + rng.below(w.inputs_per_kind))
        .collect();
    Inputs { items, order }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_differs() {
        let w = find("serve-mixed-fleet").unwrap();
        let (a, b, c) = (generate(w, 7), generate(w, 7), generate(w, 8));
        assert_eq!(a.order, b.order);
        assert!(a
            .items
            .iter()
            .zip(&b.items)
            .all(|(x, y)| x.image == y.image));
        assert!(a
            .items
            .iter()
            .zip(&c.items)
            .any(|(x, y)| x.image != y.image));
        assert!(a.order.iter().all(|&i| i < a.items.len()));
        for input in &a.items {
            let kd = w.kinds[input.kind];
            assert_eq!((input.image.rows(), input.image.cols()), (kd.rows, kd.cols));
            assert!(input
                .image
                .as_slice()
                .iter()
                .all(|&v| v.fract() == 0.0 && (0.0..=255.0).contains(&v)));
        }
    }
}
