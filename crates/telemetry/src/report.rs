//! Report builders: turn a finished [`World`]'s hosts into the JSON
//! structure every experiment binary emits next to its text output.

use crate::json::Json;
use lrp_core::{Host, PacketLedger, SockStats, World};
use lrp_sim::Histogram;

/// Summarizes a latency histogram: count, mean and the percentiles the
/// reports quote. All values are nanoseconds; each percentile is within
/// [`Histogram::RELATIVE_ERROR`] below the true sample, and `min`, `max`
/// and `mean` are exact.
pub fn histogram_json(h: &Histogram) -> Json {
    if h.count() == 0 {
        return Json::obj(vec![("count", Json::U64(0))]);
    }
    Json::obj(vec![
        ("count", Json::U64(h.count())),
        ("mean", Json::F64(h.mean())),
        ("min", Json::U64(h.min())),
        ("p50", Json::U64(h.quantile(0.50))),
        ("p90", Json::U64(h.quantile(0.90))),
        ("p99", Json::U64(h.quantile(0.99))),
        ("p999", Json::U64(h.quantile(0.999))),
        ("max", Json::U64(h.max())),
    ])
}

/// One socket's netstat row.
pub fn sock_stats_json(st: &SockStats) -> Json {
    let proto = match st.proto {
        lrp_core::SockProto::Udp => "udp",
        lrp_core::SockProto::Tcp => "tcp",
        lrp_core::SockProto::Icmp => "icmp",
    };
    let mut members = vec![
        ("sock", Json::U64(st.sock.0 as u64)),
        ("proto", Json::str(proto)),
        (
            "local",
            Json::str(format!("{}:{}", st.local.addr, st.local.port)),
        ),
        (
            "remote",
            match st.remote {
                Some(r) => Json::str(format!("{}:{}", r.addr, r.port)),
                None => Json::Null,
            },
        ),
        ("recv_q", Json::U64(st.recv_q as u64)),
        ("chan_depth", Json::U64(st.chan_depth as u64)),
        ("drops_sockbuf", Json::U64(st.drops_sockbuf)),
        ("drops_channel", Json::U64(st.drops_channel)),
    ];
    if let Some(l) = &st.listen {
        members.push((
            "listen",
            Json::obj(vec![
                ("backlog", Json::U64(l.backlog as u64)),
                ("syn_queue", Json::U64(l.syn_queue as u64)),
                ("accept_queue", Json::U64(l.accept_queue as u64)),
                ("half_open", Json::U64(l.half_open as u64)),
                ("syn_drops", Json::U64(l.syn_drops)),
                ("syn_cache_evictions", Json::U64(l.syn_cache_evictions)),
                ("cookies_sent", Json::U64(l.cookies_sent)),
                ("cookies_validated", Json::U64(l.cookies_validated)),
                ("cookies_rejected", Json::U64(l.cookies_rejected)),
            ]),
        ));
    }
    if let Some(t) = &st.tcp {
        members.push((
            "tcp",
            Json::obj(vec![
                ("state", Json::str(t.state.name())),
                ("srtt_ns", Json::U64(t.srtt_ns)),
                ("rttvar_ns", Json::U64(t.rttvar_ns)),
                ("rto_ns", Json::U64(t.rto_ns)),
                ("retries", Json::U64(t.retries as u64)),
                ("cwnd", Json::U64(t.cwnd)),
                ("ssthresh", Json::U64(t.ssthresh)),
                ("snd_q", Json::U64(t.snd_q)),
                ("rcv_q", Json::U64(t.rcv_q)),
                ("retransmits", Json::U64(t.retransmits)),
                ("fast_retransmits", Json::U64(t.fast_retransmits)),
                ("timeouts", Json::U64(t.timeouts)),
                ("dup_acks", Json::U64(t.dup_acks)),
            ]),
        ));
    }
    Json::obj(members)
}

/// The watchdog's detected anomalies for one host.
pub fn anomalies_json(host: &Host) -> Json {
    let tele = host.telemetry();
    let events: Vec<Json> = tele
        .anomalies()
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("t_ns", Json::U64(e.t_ns)),
                ("kind", Json::str(e.kind.name())),
                (
                    "pid",
                    match e.pid {
                        Some(p) => Json::U64(p as u64),
                        None => Json::Null,
                    },
                ),
                ("detail", Json::str(e.detail)),
                ("value", Json::U64(e.value)),
                ("limit", Json::U64(e.limit)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("total", Json::U64(tele.anomaly_total())),
        ("events", Json::Arr(events)),
    ])
}

/// The frame-disposition ledger as JSON, including the conservation
/// verdict.
pub fn ledger_json(l: &PacketLedger) -> Json {
    let drops: Vec<(String, Json)> = l
        .host_drops
        .iter()
        .map(|(name, n)| (name.to_string(), Json::U64(*n)))
        .collect();
    Json::obj(vec![
        ("accepted", Json::U64(l.accepted)),
        ("nic_ring_drops", Json::U64(l.nic_ring_drops)),
        ("nic_early_discards", Json::U64(l.nic_early_discards)),
        ("nic_stall_drops", Json::U64(l.nic_stall_drops)),
        ("in_flight", Json::U64(l.in_flight)),
        ("delivered_udp", Json::U64(l.delivered_udp)),
        ("delivered_icmp", Json::U64(l.delivered_icmp)),
        ("tcp_frames", Json::U64(l.tcp_frames)),
        ("forwarded", Json::U64(l.forwarded)),
        ("arp_frames", Json::U64(l.arp_frames)),
        ("reasm_absorbed", Json::U64(l.reasm_absorbed)),
        ("reasm_expired", Json::U64(l.reasm_expired)),
        ("flushed", Json::U64(l.flushed)),
        ("owner_dead", Json::U64(l.owner_dead)),
        ("reboot_flushed", Json::U64(l.reboot_flushed)),
        ("cookie_validated", Json::U64(l.cookie_validated)),
        ("cookie_rejected", Json::U64(l.cookie_rejected)),
        ("host_drops", Json::Obj(drops)),
        ("host_dropped", Json::U64(l.host_dropped())),
        ("disposed", Json::U64(l.disposed())),
        ("conserved", Json::Bool(l.conserved())),
    ])
}

/// The full per-host report: ledger, per-stage latency, drop points,
/// NIC/host statistics and the CPU charged-time breakdown.
pub fn host_report(host: &Host) -> Json {
    let tele = host.telemetry();
    let ledger = host.packet_ledger();
    let nic = host.nic.stats();
    let stats = &host.stats;
    let tcp = host.tcp_totals();

    let mut drop_rows: Vec<(String, u64)> = stats
        .drops
        .iter()
        .map(|(p, n)| (p.name().to_string(), *n))
        .collect();
    drop_rows.sort_unstable();
    let drops = Json::Obj(
        drop_rows
            .into_iter()
            .map(|(k, n)| (k, Json::U64(n)))
            .collect(),
    );

    let acct = host.sched.account_totals();
    let per_cpu: Vec<Json> = (0..host.cfg.ncpus)
        .map(|cpu| {
            Json::obj(vec![
                ("cpu", Json::U64(cpu as u64)),
                (
                    "charged_ns",
                    Json::U64(host.sched.charged_on(cpu).as_nanos()),
                ),
                ("busy_ns", Json::U64(host.cpu_busy(cpu).as_nanos())),
            ])
        })
        .collect();
    let per_process: Vec<Json> = host
        .sched
        .procs()
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("pid", Json::U64(p.pid.0 as u64)),
                ("name", Json::str(p.name.clone())),
                ("user_ns", Json::U64(p.acct.user.as_nanos())),
                ("system_ns", Json::U64(p.acct.system.as_nanos())),
                ("interrupt_ns", Json::U64(p.acct.interrupt.as_nanos())),
            ])
        })
        .collect();

    Json::obj(vec![
        ("addr", Json::str(host.addr.to_string())),
        ("arch", Json::str(host.cfg.arch.name())),
        ("ncpus", Json::U64(host.cfg.ncpus as u64)),
        ("conserved", Json::Bool(ledger.conserved())),
        ("ledger", ledger_json(&ledger)),
        (
            "latency_ns",
            Json::obj(vec![
                (
                    "arrival_to_deliver",
                    histogram_json(&tele.arrival_to_deliver),
                ),
                ("channel_residency", histogram_json(&tele.channel_residency)),
                ("softirq_dispatch", histogram_json(&tele.softirq_dispatch)),
            ]),
        ),
        ("drops", drops),
        (
            "netstat",
            Json::Arr(host.host_netstat().iter().map(sock_stats_json).collect()),
        ),
        ("anomalies", anomalies_json(host)),
        (
            "nic",
            Json::obj(vec![
                ("rx_frames", Json::U64(nic.rx_frames)),
                ("interrupts", Json::U64(nic.interrupts)),
                ("ring_drops", Json::U64(nic.ring_drops)),
                ("early_discards", Json::U64(nic.early_discards)),
                ("stall_drops", Json::U64(nic.stall_drops)),
                ("coalesced_intrs", Json::U64(nic.coalesced_intrs)),
                ("tx_frames", Json::U64(nic.tx_frames)),
                ("ifq_drops", Json::U64(nic.ifq_drops)),
            ]),
        ),
        (
            "stats",
            Json::obj(vec![
                ("udp_delivered", Json::U64(stats.udp_delivered)),
                ("udp_delivered_bytes", Json::U64(stats.udp_delivered_bytes)),
                ("tcp_delivered_bytes", Json::U64(stats.tcp_delivered_bytes)),
                ("hw_chunks", Json::U64(stats.hw_chunks)),
                ("soft_jobs", Json::U64(stats.soft_jobs)),
                ("ctx_switches", Json::U64(stats.ctx_switches)),
                ("tcp_accepted", Json::U64(stats.tcp_accepted)),
                ("ipis", Json::U64(stats.ipis)),
            ]),
        ),
        (
            "tcp",
            Json::obj(vec![
                ("segs_in", Json::U64(tcp.segs_in)),
                ("segs_out", Json::U64(tcp.segs_out)),
                ("retransmits", Json::U64(tcp.retransmits)),
                ("fast_retransmits", Json::U64(tcp.fast_retransmits)),
                ("timeouts", Json::U64(tcp.timeouts)),
                ("dup_acks", Json::U64(tcp.dup_acks)),
            ]),
        ),
        (
            "cpu",
            Json::obj(vec![
                (
                    "total_charged_ns",
                    Json::U64(host.sched.total_charged().as_nanos()),
                ),
                ("user_ns", Json::U64(acct.user.as_nanos())),
                ("system_ns", Json::U64(acct.system.as_nanos())),
                ("interrupt_ns", Json::U64(acct.interrupt.as_nanos())),
                ("per_cpu", Json::Arr(per_cpu)),
                ("per_process", Json::Arr(per_process)),
            ]),
        ),
    ])
}

/// Reports every host in the world, in host-index order.
pub fn world_report(world: &World) -> Json {
    Json::Arr(world.hosts.iter().map(host_report).collect())
}

/// The packet-conservation self-check: one error string per host whose
/// ledger does not balance (empty = all conserved). Hosts running with
/// telemetry disabled are an error too — the check is meaningless there.
pub fn conservation_errors(world: &World) -> Vec<String> {
    let mut errs = Vec::new();
    for (i, host) in world.hosts.iter().enumerate() {
        if !host.telemetry().enabled() {
            errs.push(format!("host {i} ({}): telemetry disabled", host.addr));
            continue;
        }
        let l = host.packet_ledger();
        if !l.conserved() {
            errs.push(format!(
                "host {i} ({}): accepted {} != disposed {} — {l:?}",
                host.addr,
                l.accepted,
                l.disposed()
            ));
        }
    }
    errs
}

/// Builds the world report after asserting packet conservation on every
/// host.
///
/// # Panics
///
/// Panics with the offending ledgers if any host's accepted-frame count
/// does not equal the sum of its disposition buckets.
pub fn report_and_check(world: &World, label: &str) -> Json {
    let errs = conservation_errors(world);
    assert!(
        errs.is_empty(),
        "packet conservation violated in {label}:\n{}",
        errs.join("\n")
    );
    world_report(world)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_json_of_empty_is_count_only() {
        let j = histogram_json(&Histogram::new());
        assert_eq!(
            j.render(),
            Json::obj(vec![("count", Json::U64(0))]).render()
        );
    }

    #[test]
    fn histogram_json_quotes_the_histogram() {
        let mut h = Histogram::new();
        for v in [40_000u64, 41_000, 90_000, 1_000_007] {
            h.record(v);
        }
        let j = histogram_json(&h);
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["count", "mean", "min", "p50", "p90", "p99", "p999", "max"]
        );
        let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!((u("count"), u("min"), u("max")), (4, 40_000, 1_000_007));
        assert_eq!(u("p50"), h.quantile(0.5));
        assert_eq!(u("p90"), h.quantile(0.9));
        assert_eq!(u("p999"), 1_000_007, "top bucket reports the exact max");
        assert_eq!(j.get("mean").and_then(Json::as_f64), Some(h.mean()));
    }

    #[test]
    fn histogram_json_percentiles_are_ordered() {
        let mut rng = lrp_sim::SplitMix64::new(5);
        for n in [1u64, 2, 10, 1_000] {
            let mut h = Histogram::new();
            for _ in 0..n {
                h.record(rng.next_below(1 << 30));
            }
            let j = histogram_json(&h);
            let q = ["p50", "p90", "p99", "p999", "max"]
                .map(|k| j.get(k).and_then(Json::as_u64).unwrap());
            assert!(q.windows(2).all(|w| w[0] <= w[1]), "n={n}: {q:?}");
            assert_eq!(j.get("count").and_then(Json::as_u64), Some(n));
        }
    }
}
