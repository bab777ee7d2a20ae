//! Host configuration: architecture selection and kernel parameters.

use crate::cost::CostModel;
use lrp_sim::SimDuration;
use lrp_stack::tcp::{CcAlgo, TcpConfig};

/// The four network-subsystem architectures compared in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// 4.4BSD: shared IP queue, eager softirq protocol processing, PCB
    /// lookup, interrupt time charged to whoever runs.
    Bsd,
    /// Early demultiplexing + early discard, but eager softirq processing
    /// and BSD accounting (the paper's control showing demux alone is not
    /// enough).
    EarlyDemux,
    /// LRP with demultiplexing in the host interrupt handler.
    SoftLrp,
    /// LRP with demultiplexing on the network interface.
    NiLrp,
}

impl Architecture {
    /// True for the two LRP variants.
    pub fn is_lrp(self) -> bool {
        matches!(self, Architecture::SoftLrp | Architecture::NiLrp)
    }

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Architecture::Bsd => "4.4BSD",
            Architecture::EarlyDemux => "Early-Demux",
            Architecture::SoftLrp => "SOFT-LRP",
            Architecture::NiLrp => "NI-LRP",
        }
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stateless SYN-cookie policy (see `lrp_stack::tcp::cookie`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynCookies {
    /// Never mint cookies — bit-identical to the pre-cookie stack.
    Off,
    /// Mint cookies only while the listen backlog is full (the classic
    /// high-watermark trigger): normal handshakes keep full fidelity,
    /// floods fall back to stateless operation. Takes precedence over
    /// the SYN-cache eviction when both are enabled.
    Auto,
    /// Mint a cookie for every SYN (maximum robustness, quantized MSS).
    Always,
}

/// Full host configuration.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// Which architecture the kernel runs.
    pub arch: Architecture,
    /// CPU cost model.
    pub cost: CostModel,
    /// TCP parameters.
    pub tcp: TcpConfig,
    /// Congestion controller every TCP connection on this host is created
    /// with (stamped into [`TcpConfig::cc`] at connection creation). The
    /// default, NewReno, is bit-identical to the pre-modular stack.
    pub tcp_cc: CcAlgo,
    /// Shared IP queue limit (BSD; `ipqmaxlen` = 50 in 4.4BSD).
    pub ip_queue_limit: usize,
    /// NI channel receive-queue limit, in packets.
    pub channel_limit: usize,
    /// UDP socket receive-buffer limit, in bytes.
    pub sockbuf_limit: usize,
    /// Compute UDP checksums (the paper's UDP tests disable them).
    pub udp_checksum: bool,
    /// LRP: perform the redundant PCB lookup anyway (the paper's Figure 5
    /// control, eliminating demux-efficiency bias).
    pub redundant_pcb_lookup: bool,
    /// LRP: run the minimal-priority idle protocol thread (§3.3).
    pub idle_thread: bool,
    /// LRP: run the asynchronous protocol processing (APP) thread for TCP
    /// (§3.4). Disabling it is the paper's thought experiment: receiver
    /// processing only in `recv` context, at most one congestion window
    /// per receive call.
    pub tcp_app_processing: bool,
    /// NI-LRP: reclaim a connection's NI channel when it enters TIME_WAIT
    /// (§4.2 scaling discussion).
    pub time_wait_channel_reclaim: bool,
    /// Maximum sockets/channels.
    pub max_sockets: usize,
    /// Link MTU (ATM LAN: 9180).
    pub mtu: usize,
    /// Statclock tick.
    pub tick: SimDuration,
    /// Round-robin quantum.
    pub quantum: SimDuration,
    /// Number of simulated CPUs. 1 (the default) reproduces the classic
    /// uniprocessor host bit-for-bit; larger values enable per-CPU run
    /// queues, multi-queue RX steering and IPI-based cross-CPU wakeups.
    pub ncpus: usize,
    /// Record telemetry (packet-lifecycle trace, per-stage latency
    /// histograms, frame-disposition ledger). Pure observation: the cost
    /// model, scheduling decisions and all simulated outcomes are
    /// bit-identical with telemetry on or off.
    pub telemetry: bool,
    /// SYN-flood defense: when the listen backlog's half-open budget is
    /// full, evict the *oldest* half-open connection to admit the new SYN
    /// (a minimal SYN-cache) instead of dropping it. Off by default —
    /// classic behaviour drops the new SYN at the backlog.
    pub syn_cache: bool,
    /// Stateless SYN cookies ([`SynCookies::Off`] by default). In `Auto`
    /// mode a full backlog switches the listener to stateless SYN|ACKs;
    /// the returning ACK re-derives the connection from the cookie. Off
    /// takes no new code paths — goldens are bit-identical.
    pub syn_cookies: SynCookies,
}

impl HostConfig {
    /// Defaults for the given architecture.
    pub fn new(arch: Architecture) -> Self {
        HostConfig {
            arch,
            cost: CostModel::sparc20(),
            tcp: TcpConfig::default(),
            tcp_cc: CcAlgo::NewReno,
            ip_queue_limit: 50,
            channel_limit: 64,
            sockbuf_limit: 41_600,
            udp_checksum: false,
            redundant_pcb_lookup: false,
            idle_thread: true,
            tcp_app_processing: true,
            time_wait_channel_reclaim: true,
            max_sockets: 4096,
            mtu: 9180,
            tick: SimDuration::from_millis(10),
            quantum: SimDuration::from_millis(100),
            ncpus: 1,
            telemetry: false,
            syn_cache: false,
            syn_cookies: SynCookies::Off,
        }
    }

    /// The given architecture with `ncpus` simulated CPUs.
    pub fn smp(arch: Architecture, ncpus: usize) -> Self {
        let mut c = Self::new(arch);
        c.ncpus = ncpus;
        c
    }

    /// The SunOS + FORE-driver baseline of Table 1: BSD architecture with
    /// the slow vendor driver.
    pub fn sunos_fore() -> Self {
        let mut c = Self::new(Architecture::Bsd);
        c.cost = CostModel::sunos_fore();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Architecture::Bsd.to_string(), "4.4BSD");
        assert_eq!(Architecture::NiLrp.to_string(), "NI-LRP");
        assert!(Architecture::SoftLrp.is_lrp());
        assert!(!Architecture::EarlyDemux.is_lrp());
    }

    #[test]
    fn defaults_sane() {
        let c = HostConfig::new(Architecture::SoftLrp);
        assert_eq!(c.ip_queue_limit, 50);
        assert!(c.channel_limit > 0);
        assert!(c.mtu >= 9000, "ATM LAN MTU");
    }
}
