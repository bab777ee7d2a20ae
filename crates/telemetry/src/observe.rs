//! Time-resolved observability exports: the simulated-cycle profiler
//! (flamegraph folded stacks + charge-attribution report), the metrics
//! timeline (JSON + gnuplot columns), and causal request-span traces
//! (chrome://tracing flow events + critical-path breakdowns).
//!
//! Everything here *reads* finished telemetry; nothing feeds back into the
//! simulation. The recording side lives in `lrp_core::telemetry` and is
//! contractually pure observation (same-seed runs are bit-identical with
//! the layer on or off).

use crate::json::Json;
use lrp_core::{Host, SpanEvent, World};
use std::collections::BTreeMap;

/// The simulated-cycle profiler as JSON: one entry per distinct
/// `(cpu, context, stage, billed, account)` key, plus per-context totals.
pub fn profiler_json(host: &Host) -> Json {
    let prof = host.telemetry().profiler();
    let entries: Vec<Json> = prof
        .iter()
        .map(|(k, ns)| {
            Json::obj(vec![
                ("cpu", Json::U64(k.cpu as u64)),
                ("context", Json::str(k.context)),
                ("stage", Json::str(k.stage)),
                (
                    "billed_pid",
                    k.billed.map(|p| Json::U64(p as u64)).unwrap_or(Json::Null),
                ),
                ("account", k.account.map(Json::str).unwrap_or(Json::Null)),
                ("cycles_ns", Json::U64(ns)),
            ])
        })
        .collect();
    let per_context: Vec<(String, Json)> = prof
        .per_context()
        .into_iter()
        .map(|(c, ns)| (c.to_string(), Json::U64(ns)))
        .collect();
    Json::obj(vec![
        ("total_ns", Json::U64(prof.total())),
        ("per_context_ns", Json::Obj(per_context)),
        ("entries", Json::Arr(entries)),
    ])
}

/// Folded flamegraph stacks (`host;cpu;context;stage count`) for one
/// host, suitable for `flamegraph.pl` / speedscope.
pub fn folded_stacks(host: &Host, label: &str) -> String {
    host.telemetry().profiler().folded(label)
}

/// The charge-attribution summary of one host: of all *protocol* cycles
/// (chunks with a known rightful receiver), how many were billed to that
/// receiver, to some other process, or to nobody (executed over the idle
/// context, where interrupt time is free).
///
/// This is the paper's accounting claim in one number: BSD's
/// `misattributed_fraction` is large under load; LRP's is ~0.
pub fn attribution_json(host: &Host) -> Json {
    let attr = host.telemetry().proto_attribution();
    let mut total: u64 = 0;
    let mut correct: u64 = 0;
    let mut unbilled: u64 = 0;
    let mut per_pair: Vec<Json> = Vec::new();
    let mut misbilled_by: BTreeMap<u32, u64> = BTreeMap::new();
    for (&(billed, owner), &ns) in &attr {
        total += ns;
        match billed {
            Some(b) if b == owner => correct += ns,
            Some(b) => *misbilled_by.entry(b).or_default() += ns,
            None => unbilled += ns,
        }
        per_pair.push(Json::obj(vec![
            (
                "billed_pid",
                billed.map(|p| Json::U64(p as u64)).unwrap_or(Json::Null),
            ),
            ("owner_pid", Json::U64(owner as u64)),
            ("cycles_ns", Json::U64(ns)),
        ]));
    }
    let misattributed = total - correct;
    let frac = |n: u64| {
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    };
    let victims: Vec<Json> = misbilled_by
        .into_iter()
        .map(|(pid, ns)| {
            Json::obj(vec![
                ("pid", Json::U64(pid as u64)),
                ("cycles_ns", Json::U64(ns)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("protocol_cycles_ns", Json::U64(total)),
        ("billed_to_receiver_ns", Json::U64(correct)),
        ("billed_to_other_ns", Json::U64(misattributed - unbilled)),
        ("billed_to_nobody_ns", Json::U64(unbilled)),
        ("misattributed_ns", Json::U64(misattributed)),
        ("misattributed_fraction", Json::F64(frac(misattributed))),
        ("receiver_fraction", Json::F64(frac(correct))),
        ("victims", Json::Arr(victims)),
        ("pairs", Json::Arr(per_pair)),
    ])
}

/// The fraction of a host's protocol cycles billed to anything other than
/// the rightful receiver (0.0 when no protocol cycles were recorded).
pub fn misattributed_fraction(host: &Host) -> f64 {
    let attr = host.telemetry().proto_attribution();
    let mut total = 0u64;
    let mut correct = 0u64;
    for (&(billed, owner), &ns) in &attr {
        total += ns;
        if billed == Some(owner) {
            correct += ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        (total - correct) as f64 / total as f64
    }
}

/// The metrics timeline of one host as JSON: column names, sample rows
/// (`t_ns` + one value per column), and per-process CPU series.
pub fn timeline_json(host: &Host) -> Json {
    let tele = host.telemetry();
    let tl = tele.timeline();
    let columns: Vec<Json> = tl.columns().iter().map(|c| Json::str(*c)).collect();
    let rows: Vec<Json> = tl
        .rows()
        .map(|r| {
            let mut vals = vec![Json::U64(r.t_ns)];
            vals.extend(r.values.iter().map(|v| Json::U64(*v)));
            Json::Arr(vals)
        })
        .collect();
    // Per-process series: pid → [[total_ns, user_ns] per row]. The rows
    // are rebuilt from a change log, so once for all pids.
    let proc_rows = tele.timeline_proc_cpu();
    let nproc = proc_rows.iter().map(|v| v.len()).max().unwrap_or(0);
    let procs: Vec<Json> = (0..nproc)
        .map(|pid| {
            let series: Vec<Json> = proc_rows
                .iter()
                .map(|row| {
                    let (tot, user) = row.get(pid).copied().unwrap_or((0, 0));
                    Json::Arr(vec![Json::U64(tot), Json::U64(user)])
                })
                .collect();
            Json::obj(vec![
                ("pid", Json::U64(pid as u64)),
                ("series", Json::Arr(series)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("columns", Json::Arr(columns)),
        ("rows", Json::Arr(rows)),
        ("rows_dropped", Json::U64(tl.dropped())),
        ("proc_cpu", Json::Arr(procs)),
    ])
}

/// The timeline in gnuplot column format (`# t_s col...` header).
pub fn timeline_gnuplot(host: &Host) -> String {
    host.telemetry().timeline().gnuplot_columns()
}

/// All span events of a world as a chrome://tracing (Perfetto) trace:
/// each stage is a 1 µs slice on `(host, cpu)` tracks, connected per
/// request by flow arrows keyed on the span id.
pub fn span_trace_chrome(world: &World) -> String {
    // Collect (host, event) in deterministic order.
    let mut all: Vec<(usize, SpanEvent)> = Vec::new();
    for (h, host) in world.hosts.iter().enumerate() {
        for ev in host.telemetry().span_log() {
            all.push((h, ev));
        }
    }
    all.sort_by_key(|(h, e)| (e.span, e.t_ns, *h));
    let mut out = String::from("[");
    let mut first = true;
    let mut prev_span: Option<u64> = None;
    for i in 0..all.len() {
        let (h, ev) = all[i];
        let last_of_span = all.get(i + 1).map(|(_, n)| n.span) != Some(ev.span);
        let flow_ph = if prev_span != Some(ev.span) {
            "s"
        } else if last_of_span {
            "f"
        } else {
            "t"
        };
        prev_span = Some(ev.span);
        let ts = ev.t_ns as f64 / 1000.0;
        for (ph, extra) in [
            ("X", ",\"dur\":1".to_string()),
            (flow_ph, format!(",\"id\":{},\"bp\":\"e\"", ev.span)),
        ] {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":{},\"tid\":{}{}}}",
                ev.stage, ph, ts, h, ev.cpu, extra
            ));
        }
    }
    out.push(']');
    out
}

/// One request's reconstructed path: stage-to-stage latencies in arrival
/// order, ending at the final event recorded for the span.
#[derive(Debug, Clone)]
pub struct SpanPath {
    /// The span id.
    pub span: u64,
    /// `(stage, t_ns)` in time order, across all hosts.
    pub events: Vec<(&'static str, u64)>,
}

impl SpanPath {
    /// Total time from the first to the last recorded event.
    pub fn total_ns(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some((_, a)), Some((_, b))) => b.saturating_sub(*a),
            _ => 0,
        }
    }
}

/// Groups all span events in the world by span id, in time order.
pub fn span_paths(world: &World) -> Vec<SpanPath> {
    let mut by_span: BTreeMap<u64, Vec<(&'static str, u64)>> = BTreeMap::new();
    for host in &world.hosts {
        for ev in host.telemetry().span_log() {
            by_span
                .entry(ev.span)
                .or_default()
                .push((ev.stage, ev.t_ns));
        }
    }
    by_span
        .into_iter()
        .map(|(span, mut events)| {
            events.sort_by_key(|&(_, t)| t);
            SpanPath { span, events }
        })
        .collect()
}

/// The per-request critical-path breakdown: for every adjacent stage pair
/// observed on any span (e.g. `inject->rx`, `deliver->recv`), the count,
/// mean and max latency; plus end-to-end statistics over complete spans
/// (those that reached `terminal_stage`).
pub fn span_breakdown_json(world: &World, terminal_stage: &str) -> Json {
    let paths = span_paths(world);
    let mut legs: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new(); // count, sum, max
    let mut complete = 0u64;
    let mut e2e_sum = 0u64;
    let mut e2e_max = 0u64;
    let dropped_events: u64 = world
        .hosts
        .iter()
        .map(|h| h.telemetry().span_events_dropped)
        .sum();
    for p in &paths {
        for w in p.events.windows(2) {
            let (sa, ta) = w[0];
            let (sb, tb) = w[1];
            let leg = format!("{sa}->{sb}");
            let e = legs.entry(leg).or_default();
            let d = tb.saturating_sub(ta);
            e.0 += 1;
            e.1 += d;
            e.2 = e.2.max(d);
        }
        if p.events.iter().any(|&(s, _)| s == terminal_stage) {
            complete += 1;
            let t = p.total_ns();
            e2e_sum += t;
            e2e_max = e2e_max.max(t);
        }
    }
    let legs_json: Vec<(String, Json)> = legs
        .into_iter()
        .map(|(k, (n, sum, max))| {
            (
                k,
                Json::obj(vec![
                    ("count", Json::U64(n)),
                    ("mean_ns", Json::F64(sum as f64 / n.max(1) as f64)),
                    ("max_ns", Json::U64(max)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("spans", Json::U64(paths.len() as u64)),
        ("complete", Json::U64(complete)),
        ("events_dropped", Json::U64(dropped_events)),
        (
            "end_to_end",
            Json::obj(vec![
                (
                    "mean_ns",
                    Json::F64(e2e_sum as f64 / complete.max(1) as f64),
                ),
                ("max_ns", Json::U64(e2e_max)),
            ]),
        ),
        ("legs", Json::Obj(legs_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_core::{Architecture, Host, HostConfig};

    fn mini_host() -> Host {
        Host::new(
            HostConfig::new(Architecture::Bsd),
            "10.9.9.9".parse().unwrap(),
        )
    }

    #[test]
    fn empty_host_reports_are_well_formed() {
        let h = mini_host();
        let p = profiler_json(&h);
        assert_eq!(p.get("total_ns").unwrap().as_u64(), Some(0));
        let a = attribution_json(&h);
        assert_eq!(a.get("protocol_cycles_ns").unwrap().as_u64(), Some(0));
        assert_eq!(misattributed_fraction(&h), 0.0);
        let t = timeline_json(&h);
        assert_eq!(t.get("rows_dropped").unwrap().as_u64(), Some(0));
        assert!(folded_stacks(&h, "bsd").is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_shape() {
        let mut w = World::with_defaults();
        w.add_host(mini_host());
        assert_eq!(span_trace_chrome(&w), "[]");
        let b = span_breakdown_json(&w, "recv");
        assert_eq!(b.get("spans").unwrap().as_u64(), Some(0));

        // The fig3 --trace export: 50 ms of NI-LRP overload (the
        // injector starts at 50 ms).
        let (mut w, _) = lrp_experiments::fig3::build(Architecture::NiLrp, 20_000.0, false);
        w.run_until(lrp_sim::SimTime::from_millis(100));
        let total: usize = w.hosts.iter().map(|h| h.telemetry().span_log().len()).sum();
        assert!(total > 1_000, "overload records spans: {total}");
        let doc = Json::parse(&span_trace_chrome(&w)).expect("chrome trace parses");
        fn ph(e: &Json) -> &str {
            e.get("ph").and_then(Json::as_str).unwrap()
        }
        let evs = doc.as_arr().unwrap();
        assert_eq!(evs.iter().filter(|e| ph(e) == "X").count(), total);
        // Per span id, its flow phases and times in output order.
        let mut flows: BTreeMap<u64, (String, Vec<f64>)> = BTreeMap::new();
        for e in evs.iter().filter(|e| ph(e) != "X") {
            let (phases, times) = flows
                .entry(e.get("id").and_then(Json::as_u64).unwrap())
                .or_default();
            phases.push_str(ph(e));
            times.push(e.get("ts").and_then(Json::as_f64).unwrap());
        }
        assert_eq!(flows.values().map(|(p, _)| p.len()).sum::<usize>(), total);
        for (id, (phases, times)) in &flows {
            let ok = match phases.as_bytes() {
                [b's'] => true,
                [b's', mid @ .., b'f'] => mid.iter().all(|&c| c == b't'),
                _ => false,
            };
            assert!(ok, "span {id}: flow phases {phases}");
            assert!(
                times.windows(2).all(|t| t[0] <= t[1]),
                "span {id} out of time order"
            );
        }
    }
}
