//! From rep outcomes to named metrics, and from metrics to the printed
//! lines, the result document and the one-line contract object.

use crate::layers::LayerCosts;
use crate::run::{Counts, LegOutcome, Slice};
use crate::spec::MetricSpec;
use crate::stats::Summary;
use crate::yardstick::REF_STEP_NS;
use lrp_core::Architecture;
use lrp_telemetry::json::Json;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The reported value (a median, where `summary` is present).
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Spread over the timed reps, for timings.
    pub summary: Option<Summary>,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            summary: None,
        }
    }

    fn over_reps(name: impl Into<String>, samples: &[f64], unit: &str) -> Self {
        let summary = Summary::of(samples);
        Metric {
            name: name.into(),
            value: summary.median,
            unit: unit.into(),
            summary: Some(summary),
        }
    }

    /// The contract line's stand-in for a declared per-layer metric on
    /// a workload that bypasses the layer: no work done there.
    pub fn bypassed(spec: &MetricSpec) -> Self {
        Metric {
            name: spec.name.clone(),
            value: 0.0,
            unit: spec.unit.clone(),
            summary: None,
        }
    }

    /// `name value unit [median of n, min..max, q1..q3]`.
    pub fn line(&self) -> String {
        let spread = self.summary.map_or(String::new(), |s| {
            format!(
                "  (median of {}; min {:.6} max {:.6}; q1 {:.6} q3 {:.6})",
                s.n, s.min, s.max, s.q1, s.q3
            )
        });
        format!(
            "{:<34} {:>16.6} {}{}",
            self.name, self.value, self.unit, spread
        )
    }

    /// `{"value": .., "unit": ..}` plus the spread, when there is one.
    pub fn json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::F64(self.value)),
            ("unit", Json::str(self.unit.as_str())),
        ];
        if let Some(s) = self.summary {
            pairs.extend([
                ("reps", Json::U64(s.n as u64)),
                ("min", Json::F64(s.min)),
                ("q1", Json::F64(s.q1)),
                ("q3", Json::F64(s.q3)),
                ("max", Json::F64(s.max)),
            ]);
        }
        Json::obj(pairs)
    }
}

fn rep_wall(legs: &[LegOutcome]) -> f64 {
    legs.iter().map(|l| l.wall_s).sum()
}

fn rep_wall_raw(legs: &[LegOutcome]) -> f64 {
    legs.iter().map(|l| l.wall_raw_s).sum()
}

fn sum_counts(legs: &[LegOutcome], f: impl Fn(&Counts) -> u64) -> u64 {
    legs.iter().map(|l| f(&l.counts)).sum()
}

fn events(legs: &[LegOutcome]) -> u64 {
    legs.iter().map(|l| l.events).sum()
}

/// The end-to-end metrics: all host-side, all from untraced reps; every
/// time on the reference core (see `yardstick`).
pub fn end_to_end(timed: &[Vec<LegOutcome>], setup_s: f64, peak_heap_mb: f64) -> Vec<Metric> {
    let per_rep = |f: &dyn Fn(&[LegOutcome]) -> f64| -> Vec<f64> {
        timed.iter().map(|legs| f(legs) / rep_wall(legs)).collect()
    };
    let last = timed.last().expect("at least one timed rep");
    let last_events = events(last) as f64;
    vec![
        Metric::over_reps(
            "wall_s",
            &timed.iter().map(|l| rep_wall(l)).collect::<Vec<_>>(),
            "s",
        ),
        Metric::over_reps("events_per_s", &per_rep(&|l| events(l) as f64), "1/s"),
        Metric::over_reps(
            "frames_per_s",
            &per_rep(&|l| sum_counts(l, |c| c.frames) as f64),
            "1/s",
        ),
        Metric::over_reps(
            "payload_mb_per_s",
            &per_rep(&|l| sum_counts(l, |c| c.payload_bytes) as f64 / 1e6),
            "MB/s",
        ),
        // Counts, from the last timed rep: the allocator and the frame
        // arena are as warm as they get.
        Metric::new(
            "allocs_per_event",
            last.iter().map(|l| l.allocs).sum::<u64>() as f64 / last_events,
            "1/event",
        ),
        Metric::new(
            "alloc_bytes_per_event",
            last.iter().map(|l| l.alloc_bytes).sum::<u64>() as f64 / last_events,
            "B/event",
        ),
        Metric::new("peak_heap_mb", peak_heap_mb, "MB"),
        Metric::new("setup_s", setup_s, "s"),
    ]
}

/// `ns/event` over the last quarter of a leg's slices
/// divided by the first quarter's: 1.0 means cost is linear in
/// simulated time.
fn cost_growth(legs: &[LegOutcome]) -> f64 {
    let cost = |pick: &dyn Fn(&[Slice]) -> &[Slice]| {
        let (mut wall, mut events) = (0.0, 0u64);
        for leg in legs {
            for s in pick(&leg.slices) {
                wall += s.wall_s;
                events += s.events;
            }
        }
        wall / events.max(1) as f64
    };
    let quarter = |s: &[Slice]| (s.len() / 4).max(1);
    cost(&|s| &s[s.len() - quarter(s)..]) / cost(&|s| &s[..quarter(s)])
}

/// What the traced part of a run produced.
pub struct Traced<'a> {
    /// The traced rep's legs.
    pub legs: &'a [LegOutcome],
    /// The layer replays.
    pub costs: LayerCosts,
    /// Wall of the rep run with telemetry off, where one was run.
    pub telemetry_off_wall_s: Option<f64>,
    /// `VmHWM` of the process after the traced rep, MB.
    pub peak_rss_mb: f64,
}

/// The per-layer metrics. Counts come from the traced rep's finished
/// worlds; a `*.share` is the replayed cost times the run's operation
/// count over the median timed wall. A layer the workload bypasses has
/// no metric at all.
pub fn per_layer(timed: &[Vec<LegOutcome>], traced: &Traced<'_>) -> Vec<Metric> {
    let legs = traced.legs;
    let cost = &traced.costs;
    let wall_s = Summary::of(&timed.iter().map(|l| rep_wall(l)).collect::<Vec<_>>()).median;
    let wall_ns = wall_s * 1e9;
    let count = |f: fn(&Counts) -> u64| sum_counts(legs, f);
    let frames_where = |pred: fn(Architecture) -> bool| -> f64 {
        legs.iter()
            .filter(|l| pred(l.arch))
            .map(|l| l.counts.frames)
            .sum::<u64>() as f64
    };
    let total_events = events(legs) as f64;
    let frames = count(|c| c.frames) as f64;
    let mut out = Vec::new();
    let mut shares = 0.0;
    let mut share = |out: &mut Vec<Metric>, name: &str, cost_ns: f64| {
        shares += cost_ns / wall_ns;
        out.push(Metric::new(name, cost_ns / wall_ns, "ratio"));
    };

    // lrp-sim: the world schedules one event per event it pops.
    out.push(Metric::new(
        "sim.queue.ns_per_op",
        cost.queue_ns_per_op,
        "ns",
    ));
    share(
        &mut out,
        "sim.queue.share",
        cost.queue_ns_per_op * total_events,
    );

    // lrp-wire: every frame is built once, parsed once and checksummed
    // over its length once on the way in.
    out.push(Metric::new(
        "wire.parse.ns_per_frame",
        cost.parse_ns_per_frame,
        "ns",
    ));
    out.push(Metric::new(
        "wire.build.ns_per_frame",
        cost.build_ns_per_frame,
        "ns",
    ));
    out.push(Metric::new(
        "wire.checksum.ns_per_byte",
        cost.checksum_ns_per_byte,
        "ns/B",
    ));
    share(
        &mut out,
        "wire.share",
        (cost.parse_ns_per_frame
            + cost.build_ns_per_frame
            + cost.checksum_ns_per_byte * cost.mean_frame_len)
            * frames,
    );

    // lrp-demux: the host classifies on SOFT-LRP and Early-Demux; on
    // NI-LRP the NIC does, and that cost sits in `nic.share`; 4.4BSD
    // never consults the table. Each accepted connection registers and
    // unregisters one flow at each end.
    let soft_frames =
        frames_where(|a| matches!(a, Architecture::SoftLrp | Architecture::EarlyDemux));
    let ni_frames = frames_where(|a| a == Architecture::NiLrp);
    out.push(Metric::new(
        "demux.classify.ns_per_frame",
        cost.classify_ns_per_frame,
        "ns",
    ));
    let lrp_accepted = legs
        .iter()
        .filter(|l| l.arch != Architecture::Bsd)
        .map(|l| l.counts.tcp_accepted)
        .sum::<u64>() as f64;
    if let Some(ns) = cost.update_ns_per_op {
        out.push(Metric::new("demux.update.ns_per_op", ns, "ns"));
    }
    share(
        &mut out,
        "demux.share",
        cost.classify_ns_per_frame * soft_frames
            + cost.update_ns_per_op.unwrap_or(0.0) * 2.0 * lrp_accepted,
    );

    // lrp-nic.
    let nic_ns =
        cost.nic_ring_ns_per_frame * (frames - ni_frames) + cost.nic_ni_ns_per_frame * ni_frames;
    out.push(Metric::new("nic.rx.ns_per_frame", nic_ns / frames, "ns"));
    share(&mut out, "nic.share", nic_ns);
    out.push(Metric::new("nic.rx_frames", frames, "count"));
    out.push(Metric::new(
        "nic.interrupts",
        count(|c| c.nic_interrupts) as f64,
        "count",
    ));
    out.push(Metric::new(
        "nic.ring_drops",
        count(|c| c.nic_ring_drops) as f64,
        "count",
    ));
    out.push(Metric::new(
        "nic.early_discards",
        count(|c| c.nic_early_discards) as f64,
        "count",
    ));
    out.push(Metric::new(
        "nic.delivered_ratio",
        count(|c| c.delivered_frames) as f64 / frames,
        "ratio",
    ));

    // lrp-sched.
    let switches = count(|c| c.ctx_switches) as f64;
    out.push(Metric::new(
        "sched.pick.ns_per_switch",
        cost.sched_ns_per_switch,
        "ns",
    ));
    share(&mut out, "sched.share", cost.sched_ns_per_switch * switches);
    out.push(Metric::new("sched.ctx_switches", switches, "count"));

    // lrp-stack.
    if let (Some(seg_ns), Some(hs_ns)) = (cost.tcp_ns_per_segment, cost.tcp_handshake_ns) {
        let segs_in = count(|c| c.tcp_segments_in) as f64;
        let accepted = count(|c| c.tcp_accepted) as f64;
        let retx = count(|c| c.tcp_retransmits) as f64;
        out.push(Metric::new("stack.tcp.ns_per_segment", seg_ns, "ns"));
        out.push(Metric::new("stack.tcp.handshake_ns", hs_ns, "ns"));
        share(
            &mut out,
            "stack.tcp.share",
            seg_ns * segs_in + hs_ns * accepted,
        );
        out.push(Metric::new("stack.tcp.segments_in", segs_in, "count"));
        out.push(Metric::new("stack.tcp.retransmits", retx, "count"));
        out.push(Metric::new(
            "stack.tcp.rto_fires",
            count(|c| c.tcp_rto_fires) as f64,
            "count",
        ));
        out.push(Metric::new("stack.tcp.accepted", accepted, "count"));
        out.push(Metric::new(
            "stack.tcp.retx_ratio",
            retx / count(|c| c.tcp_segments_out).max(1) as f64,
            "ratio",
        ));
    }

    // lrp-net.
    if let Some(ns) = cost.fault_ns_per_frame {
        out.push(Metric::new("net.fault.ns_per_frame", ns, "ns"));
        share(
            &mut out,
            "net.fault.share",
            ns * count(|c| c.fault_offered) as f64,
        );
        out.push(Metric::new(
            "net.fault.dropped",
            count(|c| c.fault_dropped) as f64,
            "count",
        ));
        out.push(Metric::new(
            "net.fault.reordered",
            count(|c| c.fault_reordered) as f64,
            "count",
        ));
    }

    // lrp-core: the world loop, and what no replay reaches.
    out.push(Metric::new(
        "core.world.ns_per_event",
        wall_ns / total_events,
        "ns",
    ));
    out.push(Metric::new(
        "core.world.cost_growth",
        cost_growth(legs),
        "ratio",
    ));
    out.push(Metric::new("core.residual_share", 1.0 - shares, "ratio"));
    out.push(Metric::new(
        "core.hw_chunks",
        count(|c| c.hw_chunks) as f64,
        "count",
    ));
    out.push(Metric::new(
        "core.soft_jobs",
        count(|c| c.soft_jobs) as f64,
        "count",
    ));
    out.push(Metric::new(
        "core.drops_total",
        count(|c| c.drops_total) as f64,
        "count",
    ));
    // The telemetry-off rep ran right after the traced rep: neighbours
    // in time share the machine's mood, so they are compared directly.
    if let Some(off) = traced.telemetry_off_wall_s {
        out.push(Metric::new(
            "core.telemetry.overhead_share",
            1.0 - off / rep_wall(legs),
            "ratio",
        ));
    }

    // lrp-telemetry, lrp-experiments: what a run pays outside `run_until`.
    out.push(Metric::new(
        "telemetry.report.ms",
        legs.iter().filter_map(|l| l.report_ms).sum(),
        "ms",
    ));
    out.push(Metric::over_reps(
        "experiments.build.ms",
        &timed
            .iter()
            .map(|legs| legs.iter().map(|l| l.build_s).sum::<f64>() * 1e3)
            .collect::<Vec<_>>(),
        "ms",
    ));
    // Likewise the traced rep against the timed rep just before it.
    let last_timed = timed.last().expect("at least one timed rep");
    out.push(Metric::new(
        "bench.trace_overhead_share",
        rep_wall(legs) / rep_wall(last_timed) - 1.0,
        "ratio",
    ));
    // What the yardstick took out: the reps as the clock on the wall
    // counted them, and the yardstick's mean reading over them.
    let raw = Metric::over_reps(
        "bench.wall_raw_s",
        &timed.iter().map(|l| rep_wall_raw(l)).collect::<Vec<_>>(),
        "s",
    );
    out.push(Metric::new(
        "bench.yardstick.step_ns",
        REF_STEP_NS * timed.iter().map(|l| rep_wall_raw(l)).sum::<f64>()
            / timed.iter().map(|l| rep_wall(l)).sum::<f64>(),
        "ns",
    ));
    out.push(raw);
    // What the kernel saw of `peak_heap_mb`: layout-dependent, see README.
    out.push(Metric::new("bench.peak_rss_mb", traced.peak_rss_mb, "MB"));

    // Per leg, from the timed reps.
    for (i, leg) in legs.iter().enumerate() {
        let walls: Vec<f64> = timed.iter().map(|rep| rep[i].wall_s).collect();
        let wall = Metric::over_reps(format!("leg.{}.wall_s", leg.name), &walls, "s");
        out.push(Metric::new(
            format!("leg.{}.ns_per_event", leg.name),
            wall.value * 1e9 / leg.events as f64,
            "ns",
        ));
        out.push(Metric::new(
            format!("leg.{}.events", leg.name),
            leg.events as f64,
            "count",
        ));
        out.push(wall);
    }
    out
}

/// Renders `value` on one line (the writer's own output is indented
/// over many; inside it a line break is always structural, since
/// strings escape theirs).
pub fn one_line(value: &Json) -> String {
    value.render().lines().map(str::trim_start).collect()
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn contract_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::F64(m.value)),
                    ("unit", Json::str(m.unit.as_str())),
                ]),
            )
        })
        .collect();
    one_line(&Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}
