//! The traced run's span recorder. Spans are taken from outside, around
//! each call the benchmark makes into a layer, kept in memory, and written
//! once at exit as a Chrome trace.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed interval on the wall clock.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    /// Unique, 1-based.
    id: u64,
    /// The causing span's id; 0 for a root.
    parent: u64,
    /// Shared by every span of one request or one ledger probe.
    request: u64,
    /// Caller thread lane.
    tid: u32,
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span or request id.
    pub fn next_id(&self) -> u64 {
        // Relaxed: the id publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Record a root span and return its id, which is also its request id.
    pub fn root(&self, name: &'static str, start: Instant, end: Instant, tid: u32) -> u64 {
        let id = self.next_id();
        self.record(Span {
            name,
            start,
            end,
            id,
            parent: 0,
            request: id,
            tid,
        });
        id
    }

    /// Record a child of root span `parent` (whose id is the request id).
    pub fn child(&self, name: &'static str, start: Instant, end: Instant, parent: u64, tid: u32) {
        let id = self.next_id();
        self.record(Span {
            name,
            start,
            end,
            id,
            parent,
            request: parent,
            tid,
        });
    }

    /// One Chrome trace event per span (complete, `"X"`, with id, parent
    /// and request in its args), after a process-name metadata event.
    pub fn events(&self) -> Vec<String> {
        let spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span");
        let us = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let mut out = Vec::with_capacity(spans.len() + 1);
        out.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\
             \"args\":{\"name\":\"perfbench\"}}"
                .to_string(),
        );
        for s in spans.iter() {
            let (ts, end) = (us(s.start), us(s.end));
            let mut e = String::new();
            let _ = write!(
                e,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.tid,
                (end - ts).max(0.0),
                s.id,
                s.parent,
                s.request
            );
            out.push(e);
        }
        out
    }
}

/// The Chrome trace file holding `events`.
pub fn chrome_json(events: &[String]) -> String {
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// Validate every event with `obs::chrome::validate`, one event at a time
/// (the file is valid when each event is: its wrapper is fixed). One
/// document per event keeps validation linear in the trace size.
pub fn validate(events: &[String]) -> Result<obs::chrome::TraceStats, String> {
    let mut total = obs::chrome::TraceStats::default();
    for e in events {
        let s = obs::chrome::validate(&format!("[{e}]"))?;
        total.events += s.events;
        total.complete += s.complete;
        total.instants += s.instants;
        total.counters += s.counters;
        total.metadata += s.metadata;
        total.flows += s.flows;
    }
    Ok(total)
}

/// Durations in µs of every complete event named `name`.
pub fn durations_us(events: &[String], name: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for e in events {
        let v = obs::json::JsonValue::parse(e)?;
        if v.get("name").and_then(|n| n.as_str()) == Some(name) {
            out.push(
                v.get("dur")
                    .and_then(|d| d.as_f64())
                    .ok_or("a span lacks dur")?,
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_validates_and_keeps_parent_and_request() {
        let t = Tracer::new();
        let a = Instant::now();
        let b = a + Duration::from_micros(250);
        let req = t.root("request", a, b, 1);
        t.child(
            "sat_service.Client.submit",
            a,
            a + Duration::from_micros(200),
            req,
            1,
        );
        t.child("bench.check", a + Duration::from_micros(200), b, req, 1);
        let events = t.events();
        let stats = validate(&events).expect("valid Chrome trace");
        assert_eq!((stats.complete, stats.metadata), (3, 1));
        let json = chrome_json(&events);
        assert_eq!(
            obs::chrome::validate(&json),
            Ok(stats),
            "the file validates whole"
        );
        let d = durations_us(&events, "request").unwrap();
        assert_eq!(d.len(), 1);
        assert!((d[0] - 250.0).abs() < 1e-6);
        let v = obs::json::JsonValue::parse(&json).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        let arg = |i: usize, k: &str| evs[i].get("args").unwrap().get(k).unwrap().as_f64();
        assert_eq!(arg(2, "parent"), Some(req as f64));
        assert_eq!(arg(3, "request"), Some(req as f64));
    }
}
