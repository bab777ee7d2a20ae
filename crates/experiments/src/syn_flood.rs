//! Adversarial SYN flood against the *real* service port: legitimate
//! goodput and connect latency under attack, per defense.
//!
//! Figure 5 aims its flood at a dummy port — the story there is CPU
//! starvation through shared queues. This experiment is the harder,
//! adversarial variant: an open-loop attacker sprays SYNs from *spoofed,
//! never-answering* sources directly at the HTTP listener the legitimate
//! clients use, so the attack contends for the listen backlog itself,
//! not just for CPU. Swept: attack rate × architecture × defense, where
//! the defense is one of
//!
//! * **none** — the plain bounded backlog. Spoofed half-open entries
//!   camp on every slot until their SYN|ACK retransmits give up;
//!   legitimate SYNs are dropped at the full backlog.
//! * **syncache** — the PR-5 minimal SYN cache: backlog overflow evicts
//!   the oldest half-open entry, so legitimate SYNs always get a slot
//!   (but pay the per-SYN socket/channel churn, and at very high rates
//!   risk eviction before the handshake closes).
//! * **cookies** — stateless SYN cookies ([`HostConfig::syn_cookies`]
//!   on top of the cache): a full backlog switches the listener to
//!   stateless SYN|ACKs whose sequence number *is* the state. Spoofed
//!   SYNs cost one keyed hash and one reply; only a returning valid ACK
//!   materialises a connection.
//!
//! The composed scenario reboots the victim mid-flood
//! ([`lrp_core::CrashEvent::reboot`]): NIC down for the boot window,
//! rings/channels flushed into the conserved `reboot_flushed` bucket,
//! all sockets cold, worker pool respawned through the restartable-app
//! chain — while the attacker keeps spraying. Measured: time back to
//! the first served request and steady tail goodput.

use crate::{Output, HOST_A, HOST_B};
use lrp_apps::{shared, HttpClient, HttpMetrics, HttpWorker, Shared, SharedListener};
use lrp_core::{Architecture, CrashEvent, DropPoint, Host, HostConfig, HostFaultPlan, World};
use lrp_net::{Injector, Pattern};
use lrp_sim::{SimDuration, SimTime};
use lrp_telemetry::Json;
use lrp_wire::{tcp, Endpoint, Frame, Ipv4Addr};
use std::cell::RefCell;
use std::rc::Rc;

/// Port of the attacked HTTP service.
pub const HTTP_PORT: u16 = 80;
/// Document size (matching Figure 5).
const DOC_LEN: usize = 1300;
/// Closed-loop legitimate clients.
const CLIENTS: usize = 8;
/// Pre-forked HTTP worker pool size.
const WORKERS: usize = 8;
/// Listen backlog of the attacked service.
const BACKLOG: usize = 32;
/// Boot delay of the mid-flood reboot scenario.
pub const BOOT_DELAY: SimDuration = SimDuration::from_millis(100);

/// SYN-flood defense under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defense {
    /// Plain bounded backlog, no mitigation.
    None,
    /// Minimal SYN cache (evict-oldest on overflow).
    SynCache,
    /// Stateless SYN cookies (auto-engaged on full backlog), SYN cache
    /// as the fallback below the watermark.
    Cookies,
}

impl Defense {
    /// All defenses, weakest first.
    pub fn all() -> [Defense; 3] {
        [Defense::None, Defense::SynCache, Defense::Cookies]
    }

    /// Short label for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Defense::None => "none",
            Defense::SynCache => "syncache",
            Defense::Cookies => "cookies",
        }
    }

    /// Applies the defense to a host configuration.
    pub fn apply(self, cfg: &mut HostConfig) {
        match self {
            Defense::None => {}
            Defense::SynCache => cfg.syn_cache = true,
            Defense::Cookies => {
                cfg.syn_cache = true;
                cfg.syn_cookies = true;
            }
        }
    }
}

/// One measured sweep point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Architecture under test.
    pub arch: Architecture,
    /// Defense under test.
    pub defense: Defense,
    /// Attack rate, spoofed SYNs/second.
    pub syn_pps: f64,
    /// Legitimate HTTP transactions/second.
    pub http_tps: f64,
    /// p99 connect (handshake) latency of successful legitimate
    /// connections, milliseconds (`None`: no connection ever succeeded).
    pub p99_connect_ms: Option<f64>,
    /// Client-visible connect/transfer failures.
    pub failures: u64,
    /// SYNs dropped at the full backlog.
    pub backlog_drops: u64,
    /// Half-open entries evicted by the SYN cache.
    pub syn_cache_evictions: u64,
    /// Stateless SYN|ACKs minted.
    pub cookies_sent: u64,
    /// Cookie ACKs that validated into connections.
    pub cookies_validated: u64,
    /// Cookie ACKs rejected (stale/forged).
    pub cookies_rejected: u64,
    /// Both hosts' packet ledgers balanced.
    pub conserved: bool,
}

/// The mid-flood reboot measurement (cookies defense).
#[derive(Clone, Copy, Debug)]
pub struct RebootPoint {
    /// Architecture under test.
    pub arch: Architecture,
    /// Attack rate, spoofed SYNs/second.
    pub syn_pps: f64,
    /// When the host went down, ms.
    pub reboot_ms: f64,
    /// When it came back up (reboot + boot delay), ms.
    pub boot_ms: f64,
    /// First served legitimate request after the host came back, ms
    /// since power failed (`None`: never recovered).
    pub recovery_ms: Option<f64>,
    /// Legitimate goodput before the outage, transactions/second.
    pub tps_before: f64,
    /// Steady-tail goodput (second half of the post-boot window).
    pub tps_after: f64,
    /// Frames flushed out of NIC rings / channels / IP queue by the
    /// teardown, conserved into the `reboot_flushed` ledger bucket.
    pub reboot_flushed: u64,
    /// Frames that arrived while the NIC was powered off.
    pub nic_stall_drops: u64,
    /// Both hosts' packet ledgers balanced.
    pub conserved: bool,
}

/// Host configuration for one cell of the matrix: Figure-5 controls
/// (short TIME_WAIT, redundant PCB lookup on LRP) plus the defense.
pub fn config(arch: Architecture, defense: Defense) -> HostConfig {
    let mut cfg = crate::fig5::config(arch);
    defense.apply(&mut cfg);
    cfg
}

/// Builds the scenario. `reboot` arms a whole-host power-cycle of the
/// server at the given time (the worker pool is then spawned through
/// the restartable chain so the boot respawns it).
pub fn build(
    cfg: HostConfig,
    syn_pps: f64,
    reboot: Option<(SimTime, SimDuration)>,
) -> (World, Vec<Shared<HttpMetrics>>) {
    let mut world = World::with_defaults();
    let mut server = Host::new(cfg, HOST_B);
    let listener: SharedListener = Rc::new(RefCell::new(None));
    for i in 0..WORKERS {
        let name = format!("httpd-{i}");
        if reboot.is_some() {
            let cell = listener.clone();
            let master = i == 0;
            server.spawn_app_restartable(
                &name,
                0,
                64 * 1024,
                Box::new(move || {
                    if master {
                        // A fresh boot must not let siblings pick up the
                        // pre-reboot socket id: the master republishes
                        // after its new listen() succeeds.
                        *cell.borrow_mut() = None;
                    }
                    Box::new(HttpWorker::new(
                        HTTP_PORT,
                        BACKLOG,
                        DOC_LEN,
                        SimDuration::from_micros(500),
                        master,
                        cell.clone(),
                    ))
                }),
            );
        } else {
            server.spawn_app(
                &name,
                0,
                64 * 1024,
                Box::new(HttpWorker::new(
                    HTTP_PORT,
                    BACKLOG,
                    DOC_LEN,
                    SimDuration::from_micros(500),
                    i == 0,
                    listener.clone(),
                )),
            );
        }
    }
    if let Some((at, boot_delay)) = reboot {
        server.set_fault_plan(&HostFaultPlan {
            seed: 0xB007,
            crashes: vec![CrashEvent::reboot(at, boot_delay)],
        });
    }

    let mut client_host = Host::new(cfg, HOST_A);
    let mut metrics = Vec::new();
    for i in 0..CLIENTS {
        let m = shared::<HttpMetrics>();
        client_host.spawn_app(
            &format!("client-{i}"),
            0,
            0,
            Box::new(HttpClient::new(
                Endpoint::new(HOST_B, HTTP_PORT),
                100,
                DOC_LEN,
                m.clone(),
            )),
        );
        metrics.push(m);
    }

    world.add_host(client_host);
    let b = world.add_host(server);
    if syn_pps > 0.0 {
        let inj = Injector::new(
            Pattern::FixedRate { pps: syn_pps },
            SimTime::from_millis(100),
            31,
            move |seq| {
                // Spoofed sources: rotate through a /24-sized pool of
                // addresses that belong to no host (third octet never 0,
                // so the real machines are never impersonated). The
                // SYN|ACK replies vanish on the wire and the handshake
                // never completes.
                let src = Ipv4Addr::new(10, 0, 1 + (seq >> 8) as u8 % 250, seq as u8);
                let h = tcp::TcpHeader {
                    src_port: 1024 + (seq % 60_000) as u16,
                    dst_port: HTTP_PORT,
                    seq: (seq as u32).wrapping_mul(2_654_435_761),
                    ack: 0,
                    flags: tcp::flags::SYN,
                    window: 8_192,
                    mss: Some(1_460),
                };
                Frame::ipv4(tcp::build_datagram(
                    src,
                    HOST_B,
                    &h,
                    (seq & 0xFFFF) as u16,
                    &[],
                ))
            },
        );
        world.add_injector(b, inj);
    }
    (world, metrics)
}

fn percentile_ns(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * q).ceil() as usize;
    Some(samples[idx.min(samples.len() - 1)])
}

/// Extracts a sweep point from a finished world.
pub fn collect(
    arch: Architecture,
    defense: Defense,
    syn_pps: f64,
    world: &World,
    metrics: &[Shared<HttpMetrics>],
    duration: SimTime,
) -> Point {
    let span = (duration.as_secs_f64() - 0.5).max(0.1);
    let mut tx = 0u64;
    let mut failures = 0u64;
    let mut connects: Vec<u64> = Vec::new();
    for m in metrics {
        let m = m.borrow();
        tx += m.transactions;
        failures += m.failures;
        connects.extend_from_slice(&m.connect_ns);
    }
    let server = &world.hosts[1];
    let (sent, validated, rejected) = server.cookie_totals();
    Point {
        arch,
        defense,
        syn_pps,
        http_tps: tx as f64 / span,
        p99_connect_ms: percentile_ns(&mut connects, 0.99).map(|ns| ns as f64 / 1e6),
        failures,
        backlog_drops: server.stats.dropped(DropPoint::Backlog),
        syn_cache_evictions: server.syn_cache_evictions(),
        cookies_sent: sent,
        cookies_validated: validated,
        cookies_rejected: rejected,
        conserved: world.hosts[0].packet_ledger().conserved()
            && world.hosts[1].packet_ledger().conserved(),
    }
}

/// Measures one cell of the matrix.
pub fn measure(arch: Architecture, defense: Defense, syn_pps: f64, duration: SimTime) -> Point {
    let (mut world, metrics) = build(config(arch, defense), syn_pps, None);
    world.run_until(duration);
    collect(arch, defense, syn_pps, &world, &metrics, duration)
}

/// The attack-rate sweep (spoofed SYNs/second); 0 is the no-attack
/// baseline every headline ratio is computed against.
///
/// A SYN flood is a *state* attack, not a bandwidth attack: 32 backlog
/// slots die at any rate above `backlog / handshake-timeout` (the 1996
/// Panix attack ran at ~150 SYN/s). The sweep therefore covers the
/// state-exhaustion regime. Above ≈5 000 SYN/s the 1996-calibrated cost
/// model saturates the host CPU on per-SYN processing alone — there the
/// listener channel overflows indiscriminately and *no* stateless
/// defense can tell a legitimate SYN from a spoofed one (the same
/// saturation Figure 5 shows collapsing BSD at 10 000 SYN/s).
pub fn sweep_rates() -> Vec<f64> {
    vec![0.0, 250.0, 1_000.0, 2_500.0]
}

/// Runs the full matrix: rate × architecture × defense.
pub fn run_sweep(rates: &[f64], duration: SimTime) -> Vec<Point> {
    let mut out = Vec::new();
    for arch in crate::main_architectures() {
        for defense in Defense::all() {
            for &rate in rates {
                out.push(measure(arch, defense, rate, duration));
            }
        }
    }
    out
}

/// Runs the composed scenario: victim power-cycled halfway through the
/// run while the flood keeps arriving, cookies defense. Returns the
/// finished world too so callers can fold it into the host reports.
pub fn measure_reboot(arch: Architecture, syn_pps: f64, duration: SimTime) -> (RebootPoint, World) {
    let reboot_at = SimTime::from_nanos(duration.as_nanos() / 2);
    let (mut world, metrics) = build(
        config(arch, Defense::Cookies),
        syn_pps,
        Some((reboot_at, BOOT_DELAY)),
    );
    world.run_until(duration);
    let server = &world.hosts[1];
    let &reboot_t = server.reboots().first().expect("reboot executed");
    let boot_t = reboot_t
        .checked_add(BOOT_DELAY)
        .expect("boot time in range");
    let warmup = SimTime::from_millis(500);
    let before_span = reboot_t.since(warmup).as_secs_f64().max(0.1);
    // Steady tail: the second half of the post-boot window, clear of the
    // client RTO backoffs the outage provokes.
    let tail_start =
        SimTime::from_nanos(boot_t.as_nanos() + (duration.as_nanos() - boot_t.as_nanos()) / 2);
    let tail_span = duration.since(tail_start).as_secs_f64().max(0.1);
    let mut before = 0u64;
    let mut tail = 0u64;
    let mut first_after: Option<SimTime> = None;
    for m in &metrics {
        let m = m.borrow();
        before += m.completions_in(warmup, reboot_t);
        tail += m.completions_in(tail_start, duration);
        if let Some(t) = m.first_completion_since(boot_t) {
            first_after = Some(first_after.map_or(t, |f| f.min(t)));
        }
    }
    let ledger = server.packet_ledger();
    let point = RebootPoint {
        arch,
        syn_pps,
        reboot_ms: reboot_t.as_nanos() as f64 / 1e6,
        boot_ms: boot_t.as_nanos() as f64 / 1e6,
        recovery_ms: first_after.map(|t| t.since(reboot_t).as_nanos() as f64 / 1e6),
        tps_before: before as f64 / before_span,
        tps_after: tail as f64 / tail_span,
        reboot_flushed: ledger.reboot_flushed,
        nic_stall_drops: ledger.nic_stall_drops,
        conserved: world.hosts[0].packet_ledger().conserved() && ledger.conserved(),
    };
    (point, world)
}

/// Looks up a sweep point.
pub fn find(points: &[Point], arch: Architecture, defense: Defense, rate: f64) -> Option<&Point> {
    points
        .iter()
        .find(|p| p.arch == arch && p.defense == defense && p.syn_pps == rate)
}

/// Generation-time headline checks; returns the violated claims (empty
/// when every headline holds). Asserted by [`output`] before anything
/// is written, so a regression can never emit a green artifact.
pub fn check_headlines(points: &[Point], reboot: &RebootPoint) -> Vec<String> {
    let mut bad = Vec::new();
    let top = points.iter().map(|p| p.syn_pps).fold(0.0f64, f64::max);
    let tps = |arch, def, rate| find(points, arch, def, rate).map_or(0.0, |p| p.http_tps);

    // Cookies beat the plain SYN cache on legitimate goodput at the top
    // attack rate on the LRP architectures. (On BSD both defenses solve
    // the state exhaustion about equally — eager softirq processing
    // keeps evicting; on LRP the §3.4 channel feedback turns a full
    // listener deaf, which preempts the cache entirely, and only the
    // stateless cookie path keeps the listener answering.)
    for arch in [Architecture::SoftLrp, Architecture::NiLrp] {
        let cookies = tps(arch, Defense::Cookies, top);
        let cache = tps(arch, Defense::SynCache, top);
        if cookies <= cache {
            bad.push(format!(
                "{}: cookies ({cookies:.0} tps) do not beat syncache ({cache:.0} tps) at {top:.0} SYN/s",
                arch.name()
            ));
        }
    }

    // With cookies, NI-LRP legitimate goodput at the top rate stays
    // within 2x of its no-attack baseline.
    let base = tps(Architecture::NiLrp, Defense::Cookies, 0.0);
    let under = tps(Architecture::NiLrp, Defense::Cookies, top);
    if under < base / 2.0 {
        bad.push(format!(
            "NI-LRP+cookies collapses under attack: {under:.0} tps vs {base:.0} baseline (> 2x drop)"
        ));
    }

    // Undefended BSD collapses at the top rate.
    let bsd_base = tps(Architecture::Bsd, Defense::None, 0.0);
    let bsd_under = tps(Architecture::Bsd, Defense::None, top);
    if bsd_under > bsd_base * 0.2 {
        bad.push(format!(
            "undefended BSD did not collapse: {bsd_under:.0} tps vs {bsd_base:.0} baseline"
        ));
    }

    // The rebooted victim comes back: first served request within a
    // bounded window of power failing (boot delay + client RTO backoff),
    // and steady tail goodput within 2x of the pre-outage rate.
    match reboot.recovery_ms {
        Some(ms) if ms <= 3_000.0 => {}
        Some(ms) => bad.push(format!("reboot recovery took {ms:.0} ms (> 3000 ms bound)")),
        None => bad.push("victim never served a request after the reboot".to_string()),
    }
    if reboot.tps_after < reboot.tps_before / 2.0 {
        bad.push(format!(
            "post-reboot goodput did not recover: {:.0} tps tail vs {:.0} before",
            reboot.tps_after, reboot.tps_before
        ));
    }
    if !reboot.conserved || points.iter().any(|p| !p.conserved) {
        bad.push("packet ledger not conserved".to_string());
    }
    bad
}

/// Renders the sweep and the reboot scenario as text tables.
pub fn render(points: &[Point], reboot: &RebootPoint) -> String {
    let mut out = String::from(
        "SYN flood at the real service port: legitimate goodput by defense\n\
         (8 closed-loop HTTP clients, spoofed never-answering attack sources,\n\
         backlog 32, TIME_WAIT=500ms; p99 = legitimate connect latency)\n\n",
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.arch.name().to_string(),
                p.defense.name().to_string(),
                format!("{:.0}", p.syn_pps),
                format!("{:.0}", p.http_tps),
                p.p99_connect_ms
                    .map(|m| format!("{m:.2}"))
                    .unwrap_or_else(|| "-".to_string()),
                p.failures.to_string(),
                p.backlog_drops.to_string(),
                p.syn_cache_evictions.to_string(),
                p.cookies_sent.to_string(),
                p.cookies_validated.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::plot::table(
        &[
            "arch", "defense", "SYN/s", "tps", "p99 ms", "fails", "backlog", "evict", "cookies",
            "valid",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\nMid-flood reboot ({} at {:.0} SYN/s, cookies, boot delay {} ms):\n\
         down {:.0} ms, up {:.0} ms, first request served {} after power failed;\n\
         goodput {:.0} tps before vs {:.0} tps steady tail; {} frames flushed,\n\
         {} dropped at the dead NIC.\n",
        reboot.arch.name(),
        reboot.syn_pps,
        BOOT_DELAY.as_millis(),
        reboot.reboot_ms,
        reboot.boot_ms,
        reboot
            .recovery_ms
            .map(|m| format!("{m:.0} ms"))
            .unwrap_or_else(|| "never".to_string()),
        reboot.tps_before,
        reboot.tps_after,
        reboot.reboot_flushed,
        reboot.nic_stall_drops,
    ));
    out
}

/// The registry entry: the sweep at 3 simulated seconds per cell, the
/// reboot scenario over 4 (room after the boot for the clients' RTO
/// backoff to drain), and instrumented host reports of the cookie
/// defense at the top rate for every architecture (the headline cells)
/// plus the reboot run, `reboot_flushed` bucket included. The headline
/// claims of [`check_headlines`] are asserted.
pub fn output() -> Output {
    const SWEEP_MS: u64 = 3_000;
    const REBOOT_MS: u64 = 4_000;
    let sweep_duration = SimTime::from_millis(SWEEP_MS);
    let rates = sweep_rates();
    let top = rates.iter().copied().fold(0.0f64, f64::max);
    let points = run_sweep(&rates, sweep_duration);
    let mut hosts: Vec<_> = crate::main_architectures()
        .into_iter()
        .map(|arch| {
            let (mut world, _metrics) = build(config(arch, Defense::Cookies), top, None);
            world.run_until(sweep_duration);
            crate::report(format!("flood-{}-cookies", arch.name()), &world)
        })
        .collect();
    let (reboot, reboot_world) =
        measure_reboot(Architecture::NiLrp, top, SimTime::from_millis(REBOOT_MS));
    hosts.push(crate::report(
        format!("reboot-{}", reboot.arch.name()),
        &reboot_world,
    ));

    let violations = check_headlines(&points, &reboot);
    for v in &violations {
        eprintln!("HEADLINE VIOLATION: {v}");
    }
    assert!(violations.is_empty(), "syn_flood headline claims violated");

    let sweep = crate::arr(&points, |p| {
        Json::obj(vec![
            ("arch", Json::str(p.arch.name())),
            ("defense", Json::str(p.defense.name())),
            ("syn_pps", Json::F64(p.syn_pps)),
            ("http_tps", Json::F64(p.http_tps)),
            (
                "p99_connect_ms",
                p.p99_connect_ms.map_or(Json::Null, Json::F64),
            ),
            ("failures", Json::U64(p.failures)),
            ("backlog_drops", Json::U64(p.backlog_drops)),
            ("syn_cache_evictions", Json::U64(p.syn_cache_evictions)),
            ("cookies_sent", Json::U64(p.cookies_sent)),
            ("cookies_validated", Json::U64(p.cookies_validated)),
            ("cookies_rejected", Json::U64(p.cookies_rejected)),
            ("conserved", Json::Bool(p.conserved)),
        ])
    });
    let reboot_json = Json::obj(vec![
        ("arch", Json::str(reboot.arch.name())),
        ("syn_pps", Json::F64(reboot.syn_pps)),
        ("reboot_ms", Json::F64(reboot.reboot_ms)),
        ("boot_ms", Json::F64(reboot.boot_ms)),
        (
            "recovery_ms",
            reboot.recovery_ms.map_or(Json::Null, Json::F64),
        ),
        ("tps_before", Json::F64(reboot.tps_before)),
        ("tps_after", Json::F64(reboot.tps_after)),
        ("reboot_flushed", Json::U64(reboot.reboot_flushed)),
        ("nic_stall_drops", Json::U64(reboot.nic_stall_drops)),
        ("conserved", Json::Bool(reboot.conserved)),
    ]);
    let params = vec![
        ("quick", Json::Bool(false)),
        ("sweep_duration_ms", Json::U64(SWEEP_MS)),
        ("reboot_duration_ms", Json::U64(REBOOT_MS)),
        ("rates", crate::arr(&rates, |&r| Json::F64(r))),
        ("top_rate", Json::F64(top)),
    ];
    let data = Json::obj(vec![("sweep", sweep), ("reboot", reboot_json)]);
    Output::new(render(&points, &reboot), params, data, hosts)
}
