//! Host configuration: architecture selection and kernel parameters.

use crate::cost::CostModel;
use lrp_sim::SimDuration;
use lrp_stack::tcp::TcpConfig;

/// The statclock period: the world ticks every host this often, the
/// scheduler accrues `estcpu` and decays priorities in these units, and
/// the watchdog samples once per tick.
pub const TICK: SimDuration = SimDuration::from_millis(10);

/// The round-robin quantum for processes of equal priority.
pub const QUANTUM: SimDuration = SimDuration::from_millis(100);

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

/// Full host configuration.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// Which architecture the kernel runs.
    pub arch: Architecture,
    /// CPU cost model.
    pub cost: CostModel,
    /// TCP parameters of every connection on this host, its congestion
    /// controller ([`TcpConfig::cc`]) included.
    pub tcp: TcpConfig,
    /// NI channel receive-queue limit, in packets.
    pub channel_limit: usize,
    /// LRP: perform the redundant PCB lookup anyway (the paper's Figure 5
    /// control, eliminating demux-efficiency bias).
    pub redundant_pcb_lookup: bool,
    /// LRP: run the asynchronous protocol processing (APP) thread for TCP
    /// (§3.4). Disabling it is the paper's thought experiment: receiver
    /// processing only in `recv` context, at most one congestion window
    /// per receive call.
    pub tcp_app_processing: bool,
    /// NI-LRP: reclaim a connection's NI channel when it enters TIME_WAIT
    /// (§4.2 scaling discussion).
    pub time_wait_channel_reclaim: bool,
    /// Number of simulated CPUs. 1 (the default) reproduces the classic
    /// uniprocessor host bit-for-bit; larger values enable per-CPU run
    /// queues, multi-queue RX steering and IPI-based cross-CPU wakeups.
    pub ncpus: usize,
    /// Record telemetry (causal request spans, per-stage latency
    /// histograms, cycle profiler, metrics timeline, watchdog). Pure
    /// observation: the cost model, scheduling decisions and all
    /// simulated outcomes are bit-identical with telemetry on or off.
    /// The frame-disposition ledger is host state and counts either way.
    pub telemetry: bool,
    /// SYN-flood defense: when the listen backlog's half-open budget is
    /// full, evict the *oldest* half-open connection to admit the new SYN
    /// (a minimal SYN-cache) instead of dropping it. Off by default —
    /// classic behaviour drops the new SYN at the backlog.
    pub syn_cache: bool,
    /// Stateless SYN cookies (see `lrp_stack::tcp::cookie`). Off by
    /// default. On, a full backlog switches the listener to stateless
    /// SYN|ACKs (the classic high-watermark trigger: normal handshakes
    /// keep full fidelity), taking precedence over the SYN-cache
    /// eviction; the returning ACK re-derives the connection from the
    /// cookie. Off takes no new code paths — goldens are bit-identical.
    pub syn_cookies: bool,
}

impl HostConfig {
    /// Defaults for the given architecture.
    pub fn new(arch: Architecture) -> Self {
        HostConfig {
            arch,
            cost: CostModel::sparc20(),
            tcp: TcpConfig::default(),
            channel_limit: 64,
            redundant_pcb_lookup: false,
            tcp_app_processing: true,
            time_wait_channel_reclaim: true,
            ncpus: 1,
            telemetry: false,
            syn_cache: false,
            syn_cookies: false,
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
        assert!(c.channel_limit > 0);
    }
}
