//! The layer ledger: each layer timed or counted from outside, at the
//! workload's own shapes, in the same process as the `seq` floor.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gpu_exec::{Device, DeviceOptions, GlobalBuffer};
use hmm_model::cost::{GlobalCost, SatAlgorithm};
use hmm_model::MachineConfig;
use sat_core::{compute_sat, compute_sat_batch, par, seq, Matrix};

use crate::check::{bit_exact, bit_exact_region, median};
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::workload::{Inputs, Kind, Workload};

/// Repetitions every timed probe makes at least, however long they take.
const MIN_REPS: usize = 5;

/// Repetitions a probe stops at, so the trace stays small.
const MAX_REPS: usize = 1000;

/// Empty launches per timed repetition (one span each), so the trace
/// stays small.
const LAUNCHES_PER_REP: usize = 200;

/// One kind's first input, padded once for the raw kernels.
struct Shape {
    kind: Kind,
    image: Matrix<f64>,
    expected: Matrix<f64>,
    prows: usize,
    pcols: usize,
    a: GlobalBuffer<f64>,
    s: GlobalBuffer<f64>,
}

impl Shape {
    fn padded_elements(&self) -> usize {
        self.prows * self.pcols
    }
}

/// Times the probes and counts the checks they make.
pub struct Ledger<'a> {
    tracer: &'a Tracer,
    /// Time each probe may spend after its minimum repetitions.
    budget: Duration,
    cfg: MachineConfig,
    pub checks: u64,
    pub check_failures: Vec<String>,
}

impl<'a> Ledger<'a> {
    pub fn new(tracer: &'a Tracer, budget: Duration) -> Self {
        Ledger {
            tracer,
            budget,
            cfg: MachineConfig::default(),
            checks: 0,
            check_failures: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if !ok {
            self.check_failures.push(format!("{what} is not bit-exact"));
        }
    }

    /// Median seconds of `rep`, after one untimed warm-up, over at least
    /// `min_reps` repetitions and until the budget is spent (or `MAX_REPS`). Each timed
    /// repetition is one root span named `span`.
    fn time(&self, span: &'static str, min_reps: usize, mut rep: impl FnMut()) -> f64 {
        eprintln!("perfbench: probe {span}");
        rep();
        let start = Instant::now();
        let mut times = Vec::new();
        while times.len() < min_reps || (start.elapsed() < self.budget && times.len() < MAX_REPS) {
            let t0 = Instant::now();
            rep();
            let t1 = Instant::now();
            self.tracer.root(span, t0, t1, 0);
            times.push((t1 - t0).as_secs_f64());
        }
        median(&mut times)
    }

    /// Like [`Ledger::time`] for two repetitions that alternate, so drift
    /// on the host affects both alike.
    fn time_pair(
        &self,
        spans: (&'static str, &'static str),
        mut a: impl FnMut(),
        mut b: impl FnMut(),
    ) -> (f64, f64) {
        eprintln!("perfbench: probe {} / {}", spans.0, spans.1);
        a();
        b();
        let start = Instant::now();
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        while ta.len() < MIN_REPS || (start.elapsed() < self.budget && ta.len() < MAX_REPS) {
            for (span, f, times) in [
                (spans.0, &mut a as &mut dyn FnMut(), &mut ta),
                (spans.1, &mut b as &mut dyn FnMut(), &mut tb),
            ] {
                let t0 = Instant::now();
                f();
                let t1 = Instant::now();
                self.tracer.root(span, t0, t1, 0);
                times.push((t1 - t0).as_secs_f64());
            }
        }
        (median(&mut ta), median(&mut tb))
    }

    fn shapes(&self, w: &Workload, inputs: &Inputs) -> Vec<Shape> {
        let width = self.cfg.width;
        w.kinds
            .iter()
            .enumerate()
            .map(|(k, &kind)| {
                let input = inputs
                    .items
                    .iter()
                    .find(|i| i.kind == k)
                    .expect("every kind has inputs");
                let (prows, pcols) = kind.padded(width);
                let padded = input.image.zero_padded_to(prows, pcols).into_vec();
                Shape {
                    kind,
                    image: input.image.clone(),
                    expected: input.expected.clone(),
                    prows,
                    pcols,
                    a: GlobalBuffer::from_vec(padded),
                    s: GlobalBuffer::filled(0.0, prows * pcols),
                }
            })
            .collect()
    }

    fn hybrid_r(&self, s: &Shape) -> f64 {
        GlobalCost::new(self.cfg).optimal_r(s.prows.max(s.pcols))
    }

    /// The raw `par` kernel for `alg` on the padded shape, as
    /// `compute_sat` would call it.
    fn raw(&self, dev: &Device, alg: SatAlgorithm, s: &Shape) {
        match alg {
            SatAlgorithm::OneR1W => par::sat_1r1w(dev, &s.a, &s.s, s.prows, s.pcols),
            SatAlgorithm::TwoR1W => par::sat_2r1w(dev, &s.a, &s.s, s.prows, s.pcols),
            SatAlgorithm::HybridR1W => {
                par::sat_hybrid(dev, &s.a, &s.s, s.prows, s.pcols, self.hybrid_r(s))
            }
            other => panic!("no workload uses {}", other.name()),
        }
    }

    /// Time the raw kernel for `alg` over the shapes that ask for it (or
    /// over every shape when none does), in ns per padded element, then
    /// check the last results.
    fn raw_ns_per_elt(
        &mut self,
        span: &'static str,
        dev: &Device,
        alg: SatAlgorithm,
        shapes: &mut [Shape],
    ) -> f64 {
        let mut picked: Vec<usize> = (0..shapes.len())
            .filter(|&i| shapes[i].kind.algorithm == alg)
            .collect();
        if picked.is_empty() {
            picked = (0..shapes.len()).collect();
        }
        let elts: usize = picked.iter().map(|&i| shapes[i].padded_elements()).sum();
        let secs = self.time(span, MIN_REPS, || {
            for &i in &picked {
                self.raw(dev, alg, &shapes[i]);
            }
        });
        for &i in &picked {
            let s = &mut shapes[i];
            let ok = bit_exact_region(s.s.as_slice(), s.pcols, &s.expected);
            self.check(ok, span);
        }
        secs * 1e9 / elts as f64
    }

    /// Run every probe and set every per-layer metric that does not come
    /// from a service phase.
    pub fn run(&mut self, w: &Workload, inputs: &Inputs, batch_width: usize, out: &mut Values) {
        let cfg = self.cfg;
        let mut shapes = self.shapes(w, inputs);
        let pass_elts = w.pass_elements() as f64;
        let dev = Device::with_config(cfg);
        let dev_off = Device::new(DeviceOptions::new(cfg).record_stats(false));

        // The floor.
        let seq_secs = self.time("ledger.seq::sat_reference", MIN_REPS, || {
            for s in &shapes {
                black_box(seq::sat_reference(black_box(&s.image)));
            }
        });
        let seq_ns = seq_secs * 1e9 / pass_elts;
        out.set("seq.sat_reference_ns_per_elt", seq_ns);

        // An empty launch at the widest wavefront of the largest shape.
        let largest = shapes
            .iter()
            .max_by_key(|s| s.padded_elements())
            .expect("a workload has shapes");
        let grid = (largest.prows / cfg.width).min(largest.pcols / cfg.width);
        let launch_secs = self.time("ledger.gpu_exec::Device::launch", MIN_REPS, || {
            for _ in 0..LAUNCHES_PER_REP {
                dev.launch(grid, |_| {});
            }
        });
        out.set(
            "gpu_exec.empty_launch_us",
            launch_secs * 1e6 / LAUNCHES_PER_REP as f64,
        );

        // Model clock: counter deltas around one compute_sat per kind, on a
        // fresh device so nothing else contributes.
        let counting = Device::with_config(cfg);
        let (mut launches, mut barriers, mut coalesced, mut stride, mut shared) = (0, 0, 0, 0, 0);
        let mut modeled = 0.0;
        for s in &shapes {
            counting.reset_stats();
            let got = compute_sat(&counting, s.kind.algorithm, &s.image);
            self.check(bit_exact(&got, &s.expected), "counted compute_sat");
            let c = counting.stats();
            launches += counting.launches();
            barriers += c.barrier_steps;
            coalesced += c.coalesced_ops();
            stride += c.stride_ops();
            shared += c.shared_reads + c.shared_writes;
            // The closed form covers n × n; use the square with the padded
            // shape's element count.
            let n = ((s.padded_elements() as f64).sqrt().round() as usize).max(cfg.width);
            modeled += GlobalCost::new(cfg).cost(s.kind.algorithm, n);
        }
        let calls = shapes.len() as f64;
        out.set("gpu_exec.launches_per_call", launches as f64 / calls);
        out.set("gpu_exec.barrier_steps_per_call", barriers as f64 / calls);
        out.set(
            "gpu_exec.coalesced_ops_per_elt",
            coalesced as f64 / pass_elts,
        );
        out.set("gpu_exec.stride_ops_per_elt", stride as f64 / pass_elts);
        out.set("gpu_exec.shared_ops_per_elt", shared as f64 / pass_elts);
        out.set(
            "hmm_model.modeled_units_per_kelt",
            modeled / (pass_elts / 1000.0),
        );

        let one = self.raw_ns_per_elt(
            "ledger.par::sat_1r1w",
            &dev,
            SatAlgorithm::OneR1W,
            &mut shapes,
        );
        let one_off = self.raw_ns_per_elt(
            "ledger.par::sat_1r1w.stats_off",
            &dev_off,
            SatAlgorithm::OneR1W,
            &mut shapes,
        );
        let two = self.raw_ns_per_elt(
            "ledger.par::sat_2r1w",
            &dev,
            SatAlgorithm::TwoR1W,
            &mut shapes,
        );
        let hybrid = self.raw_ns_per_elt(
            "ledger.par::sat_hybrid",
            &dev,
            SatAlgorithm::HybridR1W,
            &mut shapes,
        );
        out.set("core.par.sat_1r1w_ns_per_elt", one);
        out.set("core.par.sat_1r1w_stats_off_ns_per_elt", one_off);
        out.set("core.par.sat_1r1w_x_seq", one / seq_ns);
        out.set("core.par.sat_2r1w_ns_per_elt", two);
        out.set("core.par.sat_hybrid_ns_per_elt", hybrid);

        // compute_sat against the raw kernel of each kind's algorithm on
        // its padded shape: the difference is pad, copy and crop.
        let (api, kernels) = self.time_pair(
            ("ledger.sat_core::compute_sat", "ledger.par.kind_kernels"),
            || {
                for s in &shapes {
                    black_box(compute_sat(&dev, s.kind.algorithm, &s.image));
                }
            },
            || {
                for s in &shapes {
                    self.raw(&dev, s.kind.algorithm, s);
                }
            },
        );
        for s in &shapes {
            let got = compute_sat(&dev, s.kind.algorithm, &s.image);
            self.check(bit_exact(&got, &s.expected), "compute_sat");
        }
        out.set("core.compute_sat_ns_per_elt", api * 1e9 / pass_elts);
        out.set(
            "core.pad_crop_ns_per_elt",
            (api - kernels) * 1e9 / pass_elts,
        );

        // compute_sat_batch at the service's batch width against as many
        // single calls, over the 1R1W shapes (the only batched algorithm).
        let batches: Vec<(Vec<Matrix<f64>>, &Shape)> = shapes
            .iter()
            .filter(|s| s.kind.algorithm == SatAlgorithm::OneR1W)
            .map(|s| (vec![s.image.clone(); batch_width], s))
            .collect();
        let batch_elts: f64 = batches
            .iter()
            .map(|(b, s)| (b.len() * s.kind.elements()) as f64)
            .sum();
        let (batched, single) = self.time_pair(
            (
                "ledger.sat_core::compute_sat_batch",
                "ledger.sat_core::compute_sat.single",
            ),
            || {
                for (b, _) in &batches {
                    black_box(compute_sat_batch(&dev, b));
                }
            },
            || {
                for (b, _) in &batches {
                    for image in b {
                        black_box(compute_sat(&dev, SatAlgorithm::OneR1W, image));
                    }
                }
            },
        );
        for (b, s) in &batches {
            let ok = compute_sat_batch(&dev, b)
                .iter()
                .all(|m| bit_exact(m, &s.expected));
            self.check(ok, "compute_sat_batch");
        }
        out.set(
            "core.compute_sat_batch_ns_per_elt",
            batched * 1e9 / batch_elts,
        );
        out.set("core.batch_x_single", batched / single);
    }
}
