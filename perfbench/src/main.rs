//! The repository's benchmark: runs one named workload from seeded inputs,
//! checks every result bit-exact against `seq::sat_reference`, and prints
//! its metrics, the last line as one JSON object. An untraced run prints
//! the end-to-end metrics; a traced run (`--trace 1`) prints the per-layer
//! ledger and writes a Chrome trace. See README.md.

mod check;
mod layers;
mod metrics;
mod run;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use obs::Obs;
use sat_service::{ServiceConfig, VerifyMode};

use check::{Percentiles, Windowed};
use layers::Ledger;
use metrics::{Metric, Values, END_TO_END, PER_LAYER};
use run::{closed_loop, Caller, LoopResult, ServiceDelta};
use trace::Tracer;
use workload::{Inputs, Target, Workload};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

/// Relative to the repository root, where the command runs.
const TRACE_DIR: &str = "perfbench/out";

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where a traced run writes its Chrome trace.
    trace_dir: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workload::find(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value:?}: want 0 to 600"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_dir: PathBuf::from(TRACE_DIR),
    })
}

/// What a run prints.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Context recorded with the result: seed, host, sample counts.
    meta: Vec<(&'static str, String)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Count a loop's attempts and failures.
    fn absorb(&mut self, phase: &str, r: &LoopResult) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        if let Some(e) = &r.first_error {
            self.problems.push(format!("{phase}: {e}"));
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let mut o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    o.meta.extend([
        ("workload", format!("{:?}", args.workload.name)),
        ("trace", args.trace.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{:?}", args.seconds)),
        ("nproc", run::nproc().to_string()),
        (
            "l2_bytes",
            run::l2_bytes().map_or("null".to_string(), |b| b.to_string()),
        ),
        (
            "profile",
            format!(
                "{:?}",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
            ),
        ),
        ("attempted", o.attempted.to_string()),
        ("failed", o.failed.to_string()),
        (
            "failed_frac",
            format!("{:?}", o.failed as f64 / o.attempted.max(1) as f64),
        ),
    ]);
    for m in &o.metrics {
        println!("# {:<42} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for p in &o.problems {
        println!("# correctness failure: {p}");
    }
    let meta: Vec<String> = o.meta.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{\"meta\":{{{}}}}}", meta.join(","));
    println!(
        "{}",
        metrics::result_line(o.correct(), o.attempted, o.failed, &o.metrics)
    );
    ExitCode::SUCCESS
}

fn clients(w: &Workload) -> usize {
    w.clients.min(run::nproc())
}

/// The end-to-end run: set up `SETUP_REPEATS` times, then one closed loop
/// for `--seconds`, untraced.
fn untraced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let inputs = workload::generate(w, args.seed);
    let warm = &inputs.items[0];
    let alg = w.kinds[warm.kind].algorithm;
    let run_for = Duration::from_secs_f64(args.seconds);
    let (setup_s, cpu_before, r) = match w.target {
        Target::Library => {
            let (dev, setup_s) = run::repeated_setup(|| run::setup_library(warm, alg))?;
            let before = run::CpuTicks::now();
            let r = closed_loop(vec![Caller::Library(&dev)], w, &inputs, run_for, None);
            (setup_s, before, r)
        }
        Target::Service => {
            let cfg = || w.service_config(w.verify, Obs::disabled());
            let (service, setup_s) = run::repeated_setup(|| run::setup_service(cfg(), warm, alg))?;
            let callers = run::service_callers(&service, clients(w));
            let before = run::CpuTicks::now();
            (
                setup_s,
                before,
                closed_loop(callers, w, &inputs, run_for, None),
            )
        }
    };
    let mut o = Outcome::new();
    o.absorb(w.name, &r);
    let all = Percentiles::of(&mut r.latencies_ns());
    let win = Windowed::of(&r.samples, r.wall.as_nanos() as u64);
    if !all.ordered() || !win.ordered(all.max) {
        o.problems
            .push(format!("percentiles out of order: {all:?} {win:?}"));
    }
    let ms = |ns: f64| ns / 1e6;
    let mut v = Values::default();
    v.set("setup_s", setup_s);
    v.set("sat_melem_per_s", win.melem_per_s);
    v.set("latency_p50_ms", ms(win.p50));
    v.set("latency_p90_ms", ms(win.p90));
    v.set("peak_rss_mb", run::peak_rss_mb()?);
    o.metrics = v.finish(END_TO_END)?;
    let whole = |ns: u64| format!("{:?}", ms(ns as f64));
    o.meta.extend([
        ("clients", clients(w).to_string()),
        ("latency_samples", all.count.to_string()),
        ("windows", check::WINDOWS.to_string()),
        // Reported, not gated: on a 2-vCPU VM it tracks hypervisor steal.
        ("latency_p99_ms", format!("{:?}", ms(win.p99))),
        ("whole_run_p50_ms", whole(all.p50)),
        ("whole_run_p90_ms", whole(all.p90)),
        ("whole_run_p99_ms", whole(all.p99)),
        ("whole_run_max_ms", whole(all.max)),
        (
            "whole_run_melem_per_s",
            format!(
                "{:?}",
                r.samples.iter().map(|s| s.elements).sum::<u64>() as f64
                    / r.wall.as_secs_f64()
                    / 1e6
            ),
        ),
        ("timed_s", format!("{:?}", r.wall.as_secs_f64())),
    ]);
    if let Some((steal, other)) = cpu_before
        .zip(run::CpuTicks::now())
        .map(|(a, b)| a.contention(&b))
    {
        o.meta.extend([
            ("cpu_steal_frac", format!("{steal:?}")),
            ("cpu_other_busy_frac", format!("{other:?}")),
        ]);
    }
    Ok(o)
}

/// One closed loop against a freshly started service; returns what the
/// clients saw and the service's own counts over the loop.
fn service_phase(
    w: &Workload,
    inputs: &Inputs,
    cfg: ServiceConfig,
    run_for: Duration,
    tracer: Option<&Tracer>,
) -> Result<(LoopResult, ServiceDelta), String> {
    let warm = &inputs.items[0];
    eprintln!(
        "perfbench: {} service phase: verify {:?}, observer {}, traced {}",
        w.name,
        cfg.resilience.verify,
        cfg.observer.is_enabled(),
        tracer.is_some()
    );
    let (service, _) = run::setup_service(cfg, warm, w.kinds[warm.kind].algorithm)?;
    let before = service.stats();
    let r = closed_loop(
        run::service_callers(&service, clients(w)),
        w,
        inputs,
        run_for,
        tracer,
    );
    let delta = ServiceDelta::between(&before, &service.stats());
    service.shutdown();
    Ok((r, delta))
}

fn p50_ns(r: &LoopResult) -> f64 {
    Percentiles::of(&mut r.latencies_ns()).p50 as f64
}

/// The per-layer run. Phases, in units of `u = --seconds / 10`:
/// the workload untraced (2u) and traced (2u); on the library workload, a
/// one-client service at the same shape (1.5u) stands in for the service
/// layer; the service with an enabled observer (1u), with `VerifyMode::Always`
/// (1u) and with `Never` (1u); then the layer ledger.
fn traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let inputs = workload::generate(w, args.seed);
    let tracer = Tracer::new();
    let u = Duration::from_secs_f64(args.seconds / 10.0);
    let config = |verify, observer| w.service_config(verify, observer);
    let mut o = Outcome::new();
    let mut v = Values::default();

    let (plain, traced, library_service, stats) = match w.target {
        Target::Library => {
            let warm = &inputs.items[0];
            let (dev, _) = run::setup_library(warm, w.kinds[warm.kind].algorithm)?;
            let plain = closed_loop(vec![Caller::Library(&dev)], w, &inputs, 2 * u, None);
            let traced = closed_loop(
                vec![Caller::Library(&dev)],
                w,
                &inputs,
                2 * u,
                Some(&tracer),
            );
            drop(dev);
            let (service, stats) = service_phase(
                w,
                &inputs,
                config(w.verify, Obs::disabled()),
                u * 3 / 2,
                None,
            )?;
            o.absorb("service", &service);
            (plain, traced, Some(service), stats)
        }
        Target::Service => {
            let (plain, stats) =
                service_phase(w, &inputs, config(w.verify, Obs::disabled()), 2 * u, None)?;
            let (traced, _) = service_phase(
                w,
                &inputs,
                config(w.verify, Obs::disabled()),
                2 * u,
                Some(&tracer),
            )?;
            (plain, traced, None, stats)
        }
    };
    o.absorb("untraced", &plain);
    o.absorb("traced", &traced);
    // On the serving workloads the untraced loop is the service phase.
    let service_loop = library_service.as_ref().unwrap_or(&plain);

    let (observed, _) = service_phase(w, &inputs, config(w.verify, Obs::new()), u, None)?;
    o.absorb("observer", &observed);
    // Fresh services of equal length for both modes, so neither reuses a
    // phase of another length.
    let mut exec_mean = |mode: VerifyMode| -> Result<f64, String> {
        let (r, d) = service_phase(w, &inputs, config(mode, Obs::disabled()), u, None)?;
        o.absorb("verify", &r);
        Ok(d.exec_mean_ms)
    };
    let verify_cost = exec_mean(VerifyMode::Always)? / exec_mean(VerifyMode::Never)? - 1.0;

    v.set("sat_service.queue_wait_mean_ms", stats.queue_mean_ms);
    v.set("sat_service.exec_mean_ms", stats.exec_mean_ms);
    v.set(
        "sat_service.other_mean_ms",
        service_loop.mean_ms() - stats.queue_mean_ms - stats.exec_mean_ms,
    );
    v.set("sat_service.batch_width_mean", stats.batch_width_mean);
    v.set(
        "sat_service.launches_per_request",
        stats.launches as f64 / stats.completed.max(1) as f64,
    );
    v.set("sat_service.attempts_failed", stats.attempts_failed as f64);
    v.set("sat_service.retries", stats.retries as f64);
    v.set("sat_service.degraded", stats.degraded as f64);
    v.set("sat_service.verify_fail", stats.verify_fail as f64);
    v.set("sat_service.verify_cost_frac", verify_cost);
    v.set(
        "sat_service.shard_launch_imbalance",
        stats.shard_imbalance(),
    );
    v.set(
        "obs.observer_overhead_frac",
        p50_ns(&observed) / p50_ns(service_loop) - 1.0,
    );

    let batch_width = (stats.batch_width_mean.round() as usize).clamp(1, 16);
    let mut ledger = Ledger::new(&tracer, u / 5);
    eprintln!("perfbench: {} layer ledger", w.name);
    ledger.run(w, &inputs, batch_width, &mut v);
    o.attempted += ledger.checks;
    o.failed += ledger.check_failures.len() as u64;
    o.problems.extend(ledger.check_failures);

    // The trace: validate it, keep it, and take the traced layer calls'
    // median from it.
    let events = tracer.events();
    let tstats = trace::validate(&events).map_err(|e| format!("invalid Chrome trace: {e}"))?;
    let path = args.trace_dir.join(format!("trace-{}.json", w.name));
    std::fs::create_dir_all(&args.trace_dir)
        .and_then(|_| std::fs::write(&path, trace::chrome_json(&events)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let layer = match w.target {
        Target::Library => run::LIBRARY_SPAN,
        Target::Service => run::SERVICE_SPAN,
    };
    let mut calls_ns: Vec<u64> = trace::durations_us(&events, layer)?
        .into_iter()
        .map(|us| (us * 1e3).round() as u64)
        .collect();
    if calls_ns.is_empty() {
        return Err(format!("the trace holds no {layer} spans"));
    }
    let traced_p50_ns = Percentiles::of(&mut calls_ns).p50 as f64;
    v.set(
        "bench.trace_overhead_frac",
        traced_p50_ns / p50_ns(&plain) - 1.0,
    );

    o.metrics = v.finish(PER_LAYER)?;
    o.meta.extend([
        ("clients", clients(w).to_string()),
        ("batch_width", batch_width.to_string()),
        ("trace_file", format!("{:?}", path.display().to_string())),
        ("trace_spans", tstats.complete.to_string()),
        ("untraced_samples", plain.samples.len().to_string()),
        ("traced_samples", traced.samples.len().to_string()),
    ]);
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = args(&[
            "--workload",
            "serve-n64-closed",
            "--seed",
            "9",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("serve-n64-closed", 9, 2.0, true)
        );
        assert!(args(&["--seed", "1"]).unwrap_err().contains("--workload"));
        assert!(args(&["--workload", "nope"])
            .unwrap_err()
            .contains("unknown workload"));
        assert!(args(&["--workload", "lib-1r1w-n1024", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "lib-1r1w-n1024", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "lib-1r1w-n1024", "--seed"]).is_err());
    }

    /// Every workload, in both modes, emits exactly its declared metrics
    /// with every result bit-exact.
    #[test]
    fn every_workload_emits_every_metric_in_both_modes() {
        for w in workload::WORKLOADS {
            for trace in [false, true] {
                let a = Args {
                    workload: w,
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    trace_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
                };
                let o = if trace { traced(&a) } else { untraced(&a) }
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
                let declared = if trace { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
                let want: Vec<&str> = declared.iter().map(|d| d.0).collect();
                assert_eq!(names, want);
                assert!(o.correct(), "{} trace={trace}: {:?}", w.name, o.problems);
                assert!(o.attempted >= 1);
            }
        }
    }
}
