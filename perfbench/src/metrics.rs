//! Declared metric names and units, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sat_melem_per_s", "Melem/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run of every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("seq.sat_reference_ns_per_elt", "ns/elt"),
    ("gpu_exec.empty_launch_us", "us"),
    ("gpu_exec.launches_per_call", "count"),
    ("gpu_exec.barrier_steps_per_call", "count"),
    ("gpu_exec.coalesced_ops_per_elt", "ops/elt"),
    ("gpu_exec.stride_ops_per_elt", "ops/elt"),
    ("gpu_exec.shared_ops_per_elt", "ops/elt"),
    ("hmm_model.modeled_units_per_kelt", "units/kelt"),
    ("core.par.sat_1r1w_ns_per_elt", "ns/elt"),
    ("core.par.sat_1r1w_stats_off_ns_per_elt", "ns/elt"),
    ("core.par.sat_1r1w_x_seq", "x"),
    ("core.par.sat_2r1w_ns_per_elt", "ns/elt"),
    ("core.par.sat_hybrid_ns_per_elt", "ns/elt"),
    ("core.compute_sat_ns_per_elt", "ns/elt"),
    ("core.pad_crop_ns_per_elt", "ns/elt"),
    ("core.compute_sat_batch_ns_per_elt", "ns/elt"),
    ("core.batch_x_single", "x"),
    ("sat_service.queue_wait_mean_ms", "ms"),
    ("sat_service.exec_mean_ms", "ms"),
    ("sat_service.other_mean_ms", "ms"),
    ("sat_service.batch_width_mean", "count"),
    ("sat_service.launches_per_request", "count"),
    ("sat_service.attempts_failed", "count"),
    ("sat_service.retries", "count"),
    ("sat_service.degraded", "count"),
    ("sat_service.verify_fail", "count"),
    ("sat_service.verify_cost_frac", "frac"),
    ("sat_service.shard_launch_imbalance", "x"),
    ("obs.observer_overhead_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Metric values collected by a run, checked against a declared list.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let old = self.0.insert(name, value);
        assert!(old.is_none(), "metric {name} set twice");
    }

    /// `(name, value, unit)` in declared order. Fails unless exactly the
    /// declared names were set, each to a finite value.
    pub fn finish(self, declared: &[(&'static str, &'static str)]) -> Result<Vec<Metric>, String> {
        let mut out = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} is not [A-Za-z0-9_.-]+"));
            }
            let value = *self
                .0
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            out.push(Metric { name, value, unit });
        }
        if let Some(extra) = self.0.keys().find(|k| !declared.iter().any(|d| d.0 == **k)) {
            return Err(format!("metric {extra} is not declared"));
        }
        Ok(out)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use obs::json::JsonValue;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn named(v: &JsonValue, key: &str) -> Vec<(String, Option<String>)> {
        v.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(JsonValue::as_str).map(str::to_string);
                (s("name").expect("entry has a name"), s("unit"))
            })
            .collect()
    }

    fn declared(list: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("") && !valid_name("a b") && !valid_name("p99/ms"));
    }

    #[test]
    fn benchmark_json_names_exactly_what_runs_emit() {
        let v = benchmark_json();
        assert_eq!(named(&v, "end_to_end"), declared(END_TO_END));
        assert_eq!(named(&v, "per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = named(&v, "workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn values_must_match_the_declared_list() {
        let list: &[(&str, &str)] = &[("a", "s"), ("b", "ms")];
        let mut v = Values::default();
        v.set("a", 1.5);
        assert!(v.finish(list).unwrap_err().contains("b was not measured"));
        let mut v = Values::default();
        v.set("a", 1.5);
        v.set("b", f64::NAN);
        assert!(v.finish(list).unwrap_err().contains("not finite"));
        let mut v = Values::default();
        v.set("a", 1.5);
        v.set("b", 2.0);
        v.set("c", 2.0);
        assert!(v.finish(list).unwrap_err().contains("c is not declared"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = [Metric {
            name: "latency_p50_ms",
            value: 0.123456789,
            unit: "ms",
        }];
        let line = result_line(true, 10, 0, &m);
        let v = JsonValue::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = v.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(0.123456789));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
    }
}
