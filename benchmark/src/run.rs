//! Running one rep: build each leg's world fresh, run it to its fixed
//! simulated end, and read everything off the finished world.

use crate::alloc;
use crate::trace::Tracer;
use crate::watchdog::Watchdog;
use crate::workloads::{Apps, LegSpec, Workload};
use crate::yardstick;
use lrp_core::{Architecture, Host, World};
use lrp_sim::SimTime;
use lrp_wire::{tcp, udp, Frame, Ipv4Addr};
use std::time::Instant;

/// Document size the HTTP workers serve (`syn_flood`'s `DOC_LEN`, which
/// is private there): the floor for "every response was full length".
const HTTP_DOC_LEN: u64 = 1300;
/// Frames recorded per leg of the traced rep for the layer replays.
const CAPTURE_LIMIT: usize = 4096;
/// Simulated milliseconds per `run_until` call: short enough in host
/// time (1.5–30 ms) that the yardstick readings either side of a slice
/// see the clock the slice ran at.
const SLICE_MS: u64 = 100;

/// How a rep is run.
#[derive(Clone, Copy)]
pub struct RepMode {
    /// Workload seed.
    pub seed: u64,
    /// Divides simulated durations and transfer sizes (`--smoke`: 20).
    pub scale_div: u64,
    /// Telemetry on every host (off only for the overhead rep).
    pub telemetry: bool,
}

/// One slice ([`SLICE_MS`] simulated) of a leg's run.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Events dispatched in the slice.
    pub events: u64,
    /// Host seconds `run_until` took, on the reference core.
    pub wall_s: f64,
}

/// Exact counters read off a finished world, summed over its hosts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Frames the NICs accepted from their links (packet-ledger total).
    pub frames: u64,
    /// Frames that reached a protocol's delivery point.
    pub delivered_frames: u64,
    /// Payload bytes consumed by applications (UDP + TCP).
    pub payload_bytes: u64,
    /// Host interrupts raised.
    pub nic_interrupts: u64,
    /// Frames dropped at a receive ring.
    pub nic_ring_drops: u64,
    /// Frames discarded early by NI demux.
    pub nic_early_discards: u64,
    /// Context switches.
    pub ctx_switches: u64,
    /// TCP segments received.
    pub tcp_segments_in: u64,
    /// TCP segments sent.
    pub tcp_segments_out: u64,
    /// TCP segments retransmitted.
    pub tcp_retransmits: u64,
    /// TCP retransmit-timer expirations.
    pub tcp_rto_fires: u64,
    /// TCP connections accepted.
    pub tcp_accepted: u64,
    /// Frames offered to a link fault stage.
    pub fault_offered: u64,
    /// Frames the fault stage dropped.
    pub fault_dropped: u64,
    /// Frames the fault stage delayed past later ones.
    pub fault_reordered: u64,
    /// Hardware-interrupt work chunks.
    pub hw_chunks: u64,
    /// Software-interrupt jobs.
    pub soft_jobs: u64,
    /// Frames dropped anywhere on a host.
    pub drops_total: u64,
    /// Most processes on one host.
    pub procs: u64,
    /// Largest demux table at the end of the run.
    pub demux_entries: u64,
    /// Events the world keeps pending: per host a tick, a timer, a link
    /// and one per CPU, plus an injector.
    pub queue_depth: u64,
}

/// What the leg's applications saw, for the workload's sanity line.
#[derive(Clone, Debug, PartialEq)]
pub enum AppFacts {
    /// Blast sinks: steady delivered rate, packets/second.
    Sinks { steady_pps: f64 },
    /// Bulk transfers.
    Bulk {
        /// Flows that completed.
        done: u64,
        /// Flows whose connection died.
        aborted: u64,
        /// Flows that received more than was sent.
        over_delivered: u64,
        /// Flows in the leg.
        flows: u64,
    },
    /// HTTP clients.
    Http {
        /// Fewest transactions any client completed.
        min_transactions: u64,
        /// Transactions over all clients.
        transactions: u64,
        /// Response bytes the client host's applications consumed.
        client_bytes: u64,
    },
}

/// Everything one leg of one rep produced.
pub struct LegOutcome {
    /// The leg's label.
    pub name: &'static str,
    /// The leg's architecture.
    pub arch: Architecture,
    /// Simulated seconds actually run.
    pub sim_s: f64,
    /// Host seconds to construct the world.
    pub build_s: f64,
    /// Host seconds inside `run_until`, on the reference core (each
    /// slice scaled by the yardstick readings either side of it).
    pub wall_s: f64,
    /// The same seconds as the clock on the wall counted them.
    pub wall_raw_s: f64,
    /// Events dispatched.
    pub events: u64,
    /// Allocations made inside `run_until`.
    pub allocs: u64,
    /// Bytes requested inside `run_until`.
    pub alloc_bytes: u64,
    /// Per slice.
    pub slices: Vec<Slice>,
    /// Counters.
    pub counts: Counts,
    /// Application-side facts.
    pub apps: AppFacts,
    /// FNV-1a over named counters, event count and app metrics.
    pub digest: u64,
    /// `lrp_telemetry::conservation_errors`: one line per host whose
    /// packet ledger does not balance.
    pub conservation_errors: Vec<String>,
    /// Host milliseconds for `world_report` + serialise (traced rep).
    pub report_ms: Option<f64>,
    /// Frames into the busiest receiver, rebuilt from the capture tap
    /// (traced rep), with that receiver's address.
    pub captured: Option<(Ipv4Addr, Vec<Frame>)>,
}

/// Runs every leg of `workload` once.
pub fn run_rep(
    workload: Workload,
    mode: RepMode,
    mut tracer: Option<&mut Tracer>,
    watchdog: &Watchdog,
) -> Vec<LegOutcome> {
    if let Some(t) = tracer.as_deref_mut() {
        t.begin("rep");
    }
    let legs = workload
        .legs()
        .iter()
        .map(|spec| run_leg(workload, spec, mode, tracer.as_deref_mut(), watchdog))
        .collect();
    if let Some(t) = tracer {
        t.end(vec![]);
    }
    legs
}

fn run_leg(
    workload: Workload,
    spec: &LegSpec,
    mode: RepMode,
    mut tracer: Option<&mut Tracer>,
    watchdog: &Watchdog,
) -> LegOutcome {
    let traced = tracer.is_some();
    watchdog.arm(format!("{}/{}", workload.name(), spec.name));
    if let Some(t) = tracer.as_deref_mut() {
        t.begin(format!("leg.{}", spec.name));
        t.begin("experiments.build");
    }
    let t_build = Instant::now();
    let mut leg = workload.build(spec, mode.seed, mode.scale_div as usize);
    if !mode.telemetry {
        for h in &mut leg.world.hosts {
            h.set_telemetry(false);
        }
    }
    if traced {
        leg.world.enable_capture(CAPTURE_LIMIT);
    }
    let build_s = t_build.elapsed().as_secs_f64();
    if let Some(t) = tracer.as_deref_mut() {
        t.end(vec![]);
    }

    let end_ms = spec.sim_secs * 1000 / mode.scale_div;
    let mut slices = Vec::with_capacity((end_ms / SLICE_MS) as usize + 1);
    let (mut wall_s, mut wall_raw_s, mut allocs, mut alloc_bytes) = (0.0, 0.0, 0, 0);
    let mut now_ms = 0;
    let mut clock = yardstick::step_ns();
    while now_ms < end_ms {
        now_ms = (now_ms + SLICE_MS).min(end_ms);
        if let Some(t) = tracer.as_deref_mut() {
            t.begin("core.world.run_until");
        }
        let events0 = leg.world.events_processed();
        let (a0, b0) = alloc::counters();
        let t0 = Instant::now();
        leg.world.run_until(SimTime::from_millis(now_ms));
        let raw = t0.elapsed().as_secs_f64();
        let (a1, b1) = alloc::counters();
        let events = leg.world.events_processed() - events0;
        if let Some(t) = tracer.as_deref_mut() {
            t.end(vec![("events", events), ("allocs", a1 - a0)]);
        }
        let clock_after = yardstick::step_ns();
        let dt = yardstick::scaled(raw, clock, clock_after);
        clock = clock_after;
        wall_s += dt;
        wall_raw_s += raw;
        allocs += a1 - a0;
        alloc_bytes += b1 - b0;
        slices.push(Slice { events, wall_s: dt });
        if workload.runs_to_completion() && leg.apps.all_finished() {
            break;
        }
    }

    let world = &leg.world;
    let report_ms = tracer.as_deref_mut().map(|t| {
        t.begin("telemetry.report");
        let t0 = Instant::now();
        let text = lrp_telemetry::world_report(world).render();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        t.end(vec![("bytes", text.len() as u64)]);
        ms
    });
    let counts = read_counts(world);
    let apps = app_facts(&leg.apps, world);
    let events = world.events_processed();
    let outcome = LegOutcome {
        name: spec.name,
        arch: spec.arch,
        sim_s: now_ms as f64 / 1e3,
        build_s,
        wall_s,
        wall_raw_s,
        events,
        allocs,
        alloc_bytes,
        slices,
        counts,
        digest: digest(world, &leg.apps),
        apps,
        // The ledger's host-side buckets are telemetry's: without it
        // there is nothing to balance.
        conservation_errors: if mode.telemetry {
            lrp_telemetry::conservation_errors(world)
        } else {
            Vec::new()
        },
        report_ms,
        captured: traced.then(|| busiest_receiver_frames(world)),
    };
    if let Some(t) = tracer {
        t.end(vec![("events", events)]);
    }
    watchdog.disarm();
    outcome
}

fn read_counts(world: &World) -> Counts {
    let mut c = Counts::default();
    for (i, h) in world.hosts.iter().enumerate() {
        let ledger = h.packet_ledger();
        let nic = h.nic.stats();
        let tcp = h.tcp_totals();
        c.frames += ledger.accepted;
        c.delivered_frames += ledger.delivered_udp + ledger.delivered_icmp + ledger.tcp_frames;
        c.payload_bytes += h.stats.udp_delivered_bytes + h.stats.tcp_delivered_bytes;
        c.nic_interrupts += nic.interrupts;
        c.nic_ring_drops += nic.ring_drops;
        c.nic_early_discards += nic.early_discards;
        c.ctx_switches += h.stats.ctx_switches;
        c.tcp_segments_in += tcp.segs_in;
        c.tcp_segments_out += tcp.segs_out;
        c.tcp_retransmits += tcp.retransmits;
        c.tcp_rto_fires += tcp.timeouts;
        c.tcp_accepted += h.stats.tcp_accepted;
        c.hw_chunks += h.stats.hw_chunks;
        c.soft_jobs += h.stats.soft_jobs;
        c.drops_total += h.stats.total_drops();
        c.procs = c.procs.max(h.sched.procs().len() as u64);
        c.demux_entries = c.demux_entries.max(h.nic.demux.len() as u64);
        c.queue_depth += h.ncpus() as u64 + 3;
        if let Some(f) = world.link_fault_stats(i) {
            c.fault_offered += f.offered;
            c.fault_dropped += f.dropped;
            c.fault_reordered += f.reordered;
        }
    }
    c.queue_depth += 1;
    c
}

fn app_facts(apps: &Apps, world: &World) -> AppFacts {
    match apps {
        Apps::Sinks(sinks) => AppFacts::Sinks {
            // First 5 buckets (500 ms) are warm-up, as in Figure 3.
            steady_pps: sinks.iter().map(|m| m.borrow().series.steady_rate(5)).sum(),
        },
        Apps::Bulk(flows, expected) => {
            let count = |pred: &dyn Fn(&lrp_apps::TcpBulkMetrics) -> bool| {
                flows.iter().filter(|m| pred(&m.borrow())).count() as u64
            };
            AppFacts::Bulk {
                done: count(&|m| m.done),
                aborted: count(&|m| m.aborted),
                over_delivered: count(&|m| m.bytes > *expected),
                flows: flows.len() as u64,
            }
        }
        Apps::Http(clients) => {
            let tx: Vec<u64> = clients.iter().map(|m| m.borrow().transactions).collect();
            AppFacts::Http {
                min_transactions: tx.iter().copied().min().unwrap_or(0),
                transactions: tx.iter().sum(),
                // Host 0 is the client machine in `syn_flood::build`.
                client_bytes: world.hosts[0].stats.tcp_delivered_bytes,
            }
        }
    }
}

/// The workload's sanity line, per leg: `None` = passed.
pub fn sanity(workload: Workload, legs: &[LegOutcome]) -> Vec<Option<String>> {
    let pps = |name: &str| {
        legs.iter().find(|l| l.name == name).map(|l| match l.apps {
            AppFacts::Sinks { steady_pps } => steady_pps,
            _ => 0.0,
        })
    };
    legs.iter()
        .map(|leg| {
            let fail = |why: String| Some(format!("{}/{}: {why}", workload.name(), leg.name));
            match &leg.apps {
                AppFacts::Sinks { steady_pps } => {
                    // LRP's headline under overload: NI-LRP >= SOFT-LRP >= 4.4BSD.
                    let floor = match leg.name {
                        "soft-lrp" => pps("bsd"),
                        "ni-lrp" => pps("soft-lrp").map(|r| r.max(9_000.0)),
                        "ni-lrp.smp4" => pps("ni-lrp"),
                        _ => None,
                    }
                    .unwrap_or(1.0);
                    (*steady_pps < floor)
                        .then(|| fail(format!("delivered {steady_pps:.0} pkts/s < {floor:.0}")))
                        .flatten()
                }
                AppFacts::Bulk {
                    done,
                    aborted,
                    over_delivered,
                    flows,
                } => {
                    // One flow must finish; of many through a lossy link
                    // some do not inside the cap (a finding, not a failure:
                    // the count is pinned across reps by the digest).
                    let all_must_finish = *flows == 1;
                    if *aborted > 0 || *over_delivered > 0 {
                        fail(format!(
                            "{aborted} flows aborted, {over_delivered} over-delivered"
                        ))
                    } else if (all_must_finish && *done != 1) || *done == 0 {
                        fail(format!("{done} of {flows} flows done"))
                    } else {
                        None
                    }
                }
                AppFacts::Http {
                    min_transactions,
                    transactions,
                    client_bytes,
                } => {
                    if *min_transactions == 0 {
                        fail("a client completed no request".into())
                    } else if *client_bytes < transactions * HTTP_DOC_LEN {
                        fail(format!(
                            "{client_bytes} response bytes for {transactions} transactions: short responses"
                        ))
                    } else {
                        None
                    }
                }
            }
        })
        .collect()
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= *b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// The counters the digest covers, from explicitly named fields with
/// drops sorted by name — never `Debug` of a map, whose order differs
/// between processes (as `tests/determinism.rs::host_state_string`).
fn host_state_string(h: &Host) -> String {
    let s = &h.stats;
    let mut drops: Vec<String> = s.drops.iter().map(|(k, v)| format!("{k:?}={v}")).collect();
    drops.sort();
    let n = h.nic.stats();
    let t = h.tcp_totals();
    format!(
        "udp={} udpB={} tcpB={} drops=[{}] hw={} soft={} ctx={} acc={} \
         nic(rx={} intr={} ring={} early={} tx={} ifq={}) \
         tcp(in={} out={} bin={} bout={} rtx={} frtx={} rto={} dup={}) charged={} rxf={}",
        s.udp_delivered,
        s.udp_delivered_bytes,
        s.tcp_delivered_bytes,
        drops.join(","),
        s.hw_chunks,
        s.soft_jobs,
        s.ctx_switches,
        s.tcp_accepted,
        n.rx_frames,
        n.interrupts,
        n.ring_drops,
        n.early_discards,
        n.tx_frames,
        n.ifq_drops,
        t.segs_in,
        t.segs_out,
        t.bytes_in,
        t.bytes_out,
        t.retransmits,
        t.fast_retransmits,
        t.timeouts,
        t.dup_acks,
        h.sched.total_charged(),
        h.rx_frames()
    )
}

fn digest(world: &World, apps: &Apps) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for h in &world.hosts {
        fnv1a(&mut hash, host_state_string(h).as_bytes());
    }
    fnv1a(
        &mut hash,
        format!("events={}", world.events_processed()).as_bytes(),
    );
    let app_line = match apps {
        Apps::Sinks(sinks) => sinks
            .iter()
            .map(|m| {
                let m = m.borrow();
                format!("sink({},{})", m.received, m.bytes)
            })
            .collect::<String>(),
        Apps::Bulk(flows, _) => flows
            .iter()
            .map(|m| {
                let m = m.borrow();
                format!("bulk({},{},{})", m.bytes, m.done, m.aborted)
            })
            .collect(),
        Apps::Http(clients) => clients
            .iter()
            .map(|m| {
                let m = m.borrow();
                format!("http({},{})", m.transactions, m.failures)
            })
            .collect(),
    };
    fnv1a(&mut hash, app_line.as_bytes());
    hash
}

/// The captured frames bound for the host that received most of them,
/// rebuilt from the capture tap's one-line summaries.
fn busiest_receiver_frames(world: &World) -> (Ipv4Addr, Vec<Frame>) {
    let mut per_host = vec![0usize; world.hosts.len()];
    for (_, h, _) in world.capture() {
        per_host[*h] += 1;
    }
    let busiest = (0..per_host.len())
        .max_by_key(|&h| per_host[h])
        .expect("a world has hosts");
    let frames = world
        .capture()
        .iter()
        .filter(|(_, h, _)| *h == busiest)
        .enumerate()
        .filter_map(|(i, (_, _, summary))| frame_from_summary(summary, i as u16))
        .collect();
    (world.hosts[busiest].addr, frames)
}

/// Rebuilds a frame from `Frame::describe` output: same protocol,
/// endpoints, flags, sequence numbers and payload length (the payload
/// bytes themselves are filler). `None` for summaries of frames the
/// workloads never send (ARP, ICMP, fragments).
pub fn frame_from_summary(summary: &str, ident: u16) -> Option<Frame> {
    let mut words = summary.split_whitespace();
    let proto = words.next()?;
    let (src, sport) = endpoint(words.next()?)?;
    if words.next()? != ">" {
        return None;
    }
    let (dst, dport) = endpoint(words.next()?)?;
    let field = |words: &mut std::str::SplitWhitespace<'_>, key: &str| -> Option<u64> {
        words.next()?.strip_prefix(key)?.parse().ok()
    };
    match proto {
        "UDP" => {
            let len = field(&mut words, "len=")? as usize;
            let payload = vec![0xBB; len];
            Some(Frame::ipv4(udp::build_datagram(
                src, dst, sport, dport, ident, &payload, false,
            )))
        }
        "TCP" => {
            let flag_word = words.next()?;
            let mut flags = 0;
            for ch in flag_word.trim_matches(['[', ']']).chars() {
                flags |= match ch {
                    'S' => tcp::flags::SYN,
                    'F' => tcp::flags::FIN,
                    'R' => tcp::flags::RST,
                    'P' => tcp::flags::PSH,
                    '.' => tcp::flags::ACK,
                    _ => return None,
                };
            }
            let h = tcp::TcpHeader {
                src_port: sport,
                dst_port: dport,
                seq: field(&mut words, "seq=")? as u32,
                ack: field(&mut words, "ack=")? as u32,
                flags,
                window: field(&mut words, "win=")? as u16,
                mss: (flags & tcp::flags::SYN != 0).then_some(1460),
            };
            let len = field(&mut words, "len=")? as usize;
            let payload = vec![0xBB; len];
            Some(Frame::ipv4(tcp::build_datagram(
                src, dst, &h, ident, &payload,
            )))
        }
        _ => None,
    }
}

fn endpoint(word: &str) -> Option<(Ipv4Addr, u16)> {
    let (addr, port) = word.rsplit_once(':')?;
    Some((addr.parse().ok()?, port.parse().ok()?))
}
