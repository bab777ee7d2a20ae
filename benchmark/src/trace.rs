//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written once, at exit, in chrome-trace
//! form. Only the traced rep records spans; end-to-end metrics never
//! come from it.

use lrp_telemetry::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.world.run_until`.
    pub name: String,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, same clock (equal to `start_us` while open).
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Rep the span belongs to.
    pub rep: u32,
    /// Counts taken at the same boundary (events, allocations, ops).
    pub counts: Vec<(&'static str, u64)>,
}

/// An in-memory span recorder. One thread, strictly nested spans.
pub struct Tracer {
    t0: Instant,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now; spans are tagged with `rep`.
    pub fn new(rep: u32) -> Self {
        Tracer {
            t0: Instant::now(),
            rep,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.into(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            rep: self.rep,
            counts: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span, attaching `counts`.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a begin/end pairing bug here).
    pub fn end(&mut self, counts: Vec<(&'static str, u64)>) {
        let end_us = self.now_us();
        let i = self.open.pop().expect("end() without a matching begin()");
        self.spans[i].end_us = end_us;
        self.spans[i].counts = counts;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, milliseconds: each span's duration minus the
/// part its direct children cover, summed over spans of the same name.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_us - s.start_us;
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, us) in spans.iter().zip(own) {
        *by_name.entry(s.name.clone()).or_insert(0.0) += us / 1e3;
    }
    by_name
}

/// The spans as a chrome-trace document (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![
                ("id", Json::U64(i as u64)),
                ("rep", Json::U64(s.rep as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
            ];
            args.extend(s.counts.iter().map(|&(k, v)| (k, Json::U64(v))));
            Json::obj(vec![
                ("name", Json::str(s.name.as_str())),
                ("ph", Json::str("X")),
                ("ts", Json::F64(s.start_us)),
                ("dur", Json::F64(s.end_us - s.start_us)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(1)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            rep: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // rep [0,100] > leg [10,90] > {build [10,20], run [20,70], run [70,85]}
        let spans = vec![
            span("rep", 0.0, 100_000.0, None),
            span("leg", 10_000.0, 90_000.0, Some(0)),
            span("build", 10_000.0, 20_000.0, Some(1)),
            span("run", 20_000.0, 70_000.0, Some(1)),
            span("run", 70_000.0, 85_000.0, Some(1)),
        ];
        let own = self_time_ms(&spans);
        assert_eq!(own["rep"], 20.0); // 100 - leg's 80
        assert_eq!(own["leg"], 5.0); // 80 - (10 + 50 + 15): grandchildren not subtracted twice
        assert_eq!(own["build"], 10.0);
        assert_eq!(own["run"], 65.0); // siblings of one name add up
        let total: f64 = own.values().sum();
        assert_eq!(total, 100.0); // self times partition the root
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut t = Tracer::new(6);
        t.begin("rep");
        t.begin("leg");
        t.end(vec![("events", 42)]);
        t.begin("leg");
        t.end(vec![]);
        t.end(vec![]);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].end_us >= s[2].end_us && s[1].end_us <= s[2].start_us);
        let doc = chrome_trace(s);
        let ev = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(ev.len(), 3);
        let args = ev[1].get("args").unwrap();
        assert_eq!(args.get("events").and_then(Json::as_u64), Some(42));
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(args.get("rep").and_then(Json::as_u64), Some(6));
        // The writer's output parses back.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
