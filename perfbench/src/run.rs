//! Set-up and the closed-loop engine shared by both modes.

use std::thread;
use std::time::{Duration, Instant};

use gpu_exec::Device;
use hmm_model::cost::SatAlgorithm;
use hmm_model::MachineConfig;
use sat_core::{compute_sat, Matrix, SumTable};
use sat_service::{Client, Service, ServiceConfig, ServiceStats};

use crate::check::{bit_exact, median, Sample};
use crate::trace::Tracer;
use crate::workload::{Input, Inputs, Workload};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

/// Span names of the closed loop's layer calls.
pub const LIBRARY_SPAN: &str = "sat_core::compute_sat";
pub const SERVICE_SPAN: &str = "sat_service::Client::submit";

/// Who a closed-loop thread calls.
pub enum Caller<'a> {
    Library(&'a Device),
    Service(Client),
}

enum Reply {
    Owned(Matrix<f64>),
    Table(SumTable<f64>),
}

impl Reply {
    fn sat(&self) -> &Matrix<f64> {
        match self {
            Reply::Owned(m) => m,
            Reply::Table(t) => t.sat(),
        }
    }
}

impl Caller<'_> {
    /// The span name of the layer call.
    fn layer(&self) -> &'static str {
        match self {
            Caller::Library(_) => LIBRARY_SPAN,
            Caller::Service(_) => SERVICE_SPAN,
        }
    }

    /// One call, timed from just before it to just after it returns. The
    /// service owns its request image, so the copy is made before timing.
    fn call(
        &self,
        image: &Matrix<f64>,
        alg: SatAlgorithm,
    ) -> (Instant, Instant, Result<Reply, String>) {
        match self {
            Caller::Library(dev) => {
                let t0 = Instant::now();
                let out = compute_sat(dev, alg, image);
                (t0, Instant::now(), Ok(Reply::Owned(out)))
            }
            Caller::Service(client) => {
                let owned = image.clone();
                let t0 = Instant::now();
                let out = client.submit(owned, alg, None);
                (
                    t0,
                    Instant::now(),
                    out.map(Reply::Table).map_err(|e| e.to_string()),
                )
            }
        }
    }
}

/// What a closed loop observed.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// One per attempt, with the client-observed latency; a failed
    /// attempt counts as `u64::MAX`, missing every latency limit, and
    /// produces no elements.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
    pub first_error: Option<String>,
}

impl LoopResult {
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.latency_ns).collect()
    }

    /// Mean latency of the completed calls.
    pub fn mean_ms(&self) -> f64 {
        let ok: Vec<u64> = self
            .latencies_ns()
            .into_iter()
            .filter(|&x| x != u64::MAX)
            .collect();
        ok.iter().map(|&x| x as f64).sum::<f64>() / ok.len().max(1) as f64 / 1e6
    }
}

/// Run each caller on its own thread, every one in a closed loop: it sends
/// its next request only after the previous one returned and was checked.
/// Each thread makes at least one call, and starts no call after `run_for`.
/// With a tracer, every request gets a root span, a child around the layer
/// call and a child around the bit-exact check.
pub fn closed_loop(
    callers: Vec<Caller<'_>>,
    w: &Workload,
    inputs: &Inputs,
    run_for: Duration,
    tracer: Option<&Tracer>,
) -> LoopResult {
    let n = callers.len();
    let start = Instant::now();
    let stop_at = start + run_for;
    let parts: Vec<LoopResult> = thread::scope(|s| {
        let handles: Vec<_> = callers
            .into_iter()
            .enumerate()
            .map(|(c, caller)| {
                s.spawn(move || {
                    let mut r = LoopResult::default();
                    let len = inputs.order.len();
                    let mut pos = c * len / n;
                    loop {
                        let input = &inputs.items[inputs.order[pos % len]];
                        pos += 1;
                        let kind = &w.kinds[input.kind];
                        let (t0, t1, out) = caller.call(&input.image, kind.algorithm);
                        let ok = match &out {
                            Ok(reply) => bit_exact(reply.sat(), &input.expected),
                            Err(e) => {
                                r.first_error.get_or_insert_with(|| e.clone());
                                false
                            }
                        };
                        let t2 = Instant::now();
                        r.attempted += 1;
                        let done_ns = (t1 - start).as_nanos() as u64;
                        if ok {
                            r.samples.push(Sample {
                                done_ns,
                                latency_ns: (t1 - t0).as_nanos() as u64,
                                elements: kind.elements() as u64,
                            });
                        } else {
                            r.samples.push(Sample {
                                done_ns,
                                latency_ns: u64::MAX,
                                elements: 0,
                            });
                            r.failed += 1;
                            r.first_error.get_or_insert_with(|| {
                                format!("{} result is not bit-exact", w.name)
                            });
                        }
                        if let Some(t) = tracer {
                            let tid = c as u32 + 1;
                            let req = t.root("request", t0, t2, tid);
                            t.child(caller.layer(), t0, t1, req, tid);
                            t.child("bench.check", t1, t2, req, tid);
                        }
                        if t2 >= stop_at {
                            break;
                        }
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut total = LoopResult {
        wall: start.elapsed(),
        ..LoopResult::default()
    };
    for p in parts {
        total.samples.extend(p.samples);
        total.attempted += p.attempted;
        total.failed += p.failed;
        total.first_error = total.first_error.or(p.first_error);
    }
    total
}

/// Closed-loop callers against `service`, one per client thread.
pub fn service_callers(service: &Service, clients: usize) -> Vec<Caller<'static>> {
    (0..clients)
        .map(|_| Caller::Service(service.client()))
        .collect()
}

/// Construct a default device (w = 32) and make one warm-up call; returns
/// the device and the seconds both took.
pub fn setup_library(warm: &Input, alg: SatAlgorithm) -> Result<(Device, f64), String> {
    let t0 = Instant::now();
    let dev = Device::with_config(MachineConfig::default());
    let out = compute_sat(&dev, alg, &warm.image);
    let secs = t0.elapsed().as_secs_f64();
    if !bit_exact(&out, &warm.expected) {
        return Err("warm-up compute_sat is not bit-exact".to_string());
    }
    Ok((dev, secs))
}

/// Start a service and serve one warm-up request; returns the service and
/// the seconds both took.
pub fn setup_service(
    cfg: ServiceConfig,
    warm: &Input,
    alg: SatAlgorithm,
) -> Result<(Service, f64), String> {
    let image = warm.image.clone();
    let t0 = Instant::now();
    let service = Service::start(cfg);
    let out = service.client().submit(image, alg, None);
    let secs = t0.elapsed().as_secs_f64();
    match out {
        Ok(t) if bit_exact(t.sat(), &warm.expected) => Ok((service, secs)),
        Ok(_) => Err("warm-up request is not bit-exact".to_string()),
        Err(e) => Err(format!("warm-up request failed: {e}")),
    }
}

/// Repeat a set-up `SETUP_REPEATS` times; keep the last instance and
/// report the median time.
pub fn repeated_setup<T>(
    mut once: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous instance before building the next, outside
        // the timed interval.
        drop(last.take());
        let (x, secs) = once()?;
        times.push(secs);
        last = Some(x);
    }
    Ok((last.expect("at least one set-up"), median(&mut times)))
}

/// `ServiceStats` over an interval: counts are differences, means are exact
/// (sum / count) differences. Bucket percentiles are never used.
#[derive(Debug, Clone)]
pub struct ServiceDelta {
    pub completed: u64,
    pub queue_mean_ms: f64,
    pub exec_mean_ms: f64,
    pub batch_width_mean: f64,
    pub launches: u64,
    pub attempts_failed: u64,
    pub retries: u64,
    pub degraded: u64,
    pub verify_fail: u64,
    pub shard_launches: Vec<u64>,
}

impl ServiceDelta {
    pub fn between(a: &ServiceStats, b: &ServiceStats) -> ServiceDelta {
        let mean = |sa: &sat_service::LatencySummary, sb: &sat_service::LatencySummary| {
            let n = sb.count - sa.count;
            (sb.mean_ms * sb.count as f64 - sa.mean_ms * sa.count as f64) / n.max(1) as f64
        };
        let completed = b.completed - a.completed;
        ServiceDelta {
            completed,
            queue_mean_ms: mean(&a.queue_latency, &b.queue_latency),
            exec_mean_ms: mean(&a.exec_latency, &b.exec_latency),
            batch_width_mean: completed as f64 / (b.batches - a.batches).max(1) as f64,
            launches: b.launches_issued - a.launches_issued,
            attempts_failed: b.attempts_failed - a.attempts_failed,
            retries: b.retries - a.retries,
            degraded: b.degraded - a.degraded,
            verify_fail: b.verify_fail - a.verify_fail,
            shard_launches: b
                .shard_launches
                .iter()
                .zip(a.shard_launches.iter().chain(std::iter::repeat(&0)))
                .map(|(y, x)| y - x)
                .collect(),
        }
    }

    /// Largest shard's launches over the mean shard's; 1 on one device.
    pub fn shard_imbalance(&self) -> f64 {
        let s = &self.shard_launches;
        let total: u64 = s.iter().sum();
        if s.len() < 2 || total == 0 {
            return 1.0;
        }
        *s.iter().max().expect("non-empty") as f64 / (total as f64 / s.len() as f64)
    }
}

/// A value from `/proc/self/status`, in kB.
fn status_kb(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident memory of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_kb("VmHWM:")
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_string())
}

/// Cumulative CPU clock ticks: over all of the machine's CPUs from
/// `/proc/stat`, and this process's own from `/proc/self/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    busy: u64,
    steal: u64,
    total: u64,
    own: u64,
}

impl CpuTicks {
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let f: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal
        let [user, nice, system, _idle, _iowait, irq, softirq, steal] = f[..] else {
            return None;
        };
        let own_stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the whole line.
        let rest: Vec<&str> = own_stat.rsplit_once(')')?.1.split_whitespace().collect();
        let own = rest.get(11)?.parse::<u64>().ok()? + rest.get(12)?.parse::<u64>().ok()?;
        Some(CpuTicks {
            busy: user + nice + system + irq + softirq,
            steal,
            total: f.iter().sum(),
            own,
        })
    }

    /// Over the interval from `self` to `later`: the share of the
    /// machine's CPU time stolen by the hypervisor, and the share spent
    /// busy outside this process. Context for reading a run's figures.
    pub fn contention(&self, later: &CpuTicks) -> (f64, f64) {
        let total = later.total.saturating_sub(self.total).max(1) as f64;
        let steal = later.steal.saturating_sub(self.steal) as f64;
        let other = later
            .busy
            .saturating_sub(self.busy)
            .saturating_sub(later.own.saturating_sub(self.own)) as f64;
        (steal / total, other / total)
    }
}

/// The host's L2 size in bytes, if the kernel reports it.
pub fn l2_bytes() -> Option<u64> {
    let s = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size").ok()?;
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1024),
        b'M' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Host parallelism.
pub fn nproc() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
