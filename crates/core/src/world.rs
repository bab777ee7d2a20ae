//! The simulation world: hosts, links, injectors and the global event
//! loop.

use crate::host::Host;
use crate::telemetry::SpanId;
use lrp_net::{FaultPlan, FaultStats, Injector, LinkConfig, LinkFaults, TxLink};
use lrp_sim::{EventQueue, SimDuration, SimTime};
use lrp_wire::{ipv4, Frame, Ipv4Addr};
use std::collections::HashMap;

/// One captured frame: `(arrival time, destination host, summary)`.
pub type CaptureEntry = (SimTime, usize, String);

/// Global simulation events.
#[derive(Debug)]
pub enum Event {
    /// A frame arrives at a host's NIC, with its causal-trace span (if
    /// any). The span is observational: it never alters simulation state.
    Frame(usize, Frame, Option<SpanId>),
    /// A work chunk completes on `(host, cpu)` (generation-guarded).
    Cpu(usize, usize, u64),
    /// A host kernel timer may be due.
    Timer(usize),
    /// Statclock tick for a host.
    Tick(usize),
    /// A host's transmit link became free.
    LinkFree(usize),
    /// A traffic injector fires.
    Inject(usize),
}

/// The world: owns hosts, one uplink per host, routing and injectors.
///
/// # Examples
///
/// ```
/// use lrp_core::{Architecture, Host, HostConfig, World};
/// use lrp_sim::SimTime;
///
/// let mut world = World::with_defaults();
/// world.add_host(Host::new(
///     HostConfig::new(Architecture::NiLrp),
///     "10.0.0.1".parse().unwrap(),
/// ));
/// world.run_until(SimTime::from_millis(100));
/// assert!(world.now >= SimTime::from_millis(100));
/// ```
pub struct World {
    /// Current simulated time.
    pub now: SimTime,
    /// The hosts, indexed by id.
    pub hosts: Vec<Host>,
    links: Vec<TxLink>,
    routes: HashMap<Ipv4Addr, usize>,
    /// Destinations reachable only through a gateway host: frames from any
    /// host other than the gateway are delivered to the gateway instead.
    via_routes: HashMap<Ipv4Addr, usize>,
    injectors: Vec<(usize, Injector)>,
    /// Per destination host: the fault stage its incoming frames pass
    /// through. `None` (the default) bypasses fault injection entirely.
    faults: Vec<Option<LinkFaults>>,
    queue: EventQueue<Event>,
    /// Per host: the earliest Timer event already scheduled.
    timer_at: Vec<SimTime>,
    /// Per host, per CPU: the generation last scheduled.
    cpu_gen: Vec<Vec<u64>>,
    link_cfg: LinkConfig,
    tick: SimDuration,
    started: bool,
    /// Events processed by `run_until` (all kinds), for wall-clock
    /// benchmarks: events/sec = events_processed / elapsed.
    events: u64,
    /// Capture tap: when enabled, every frame delivered to a host is
    /// recorded as `(time, host, summary)` up to the configured limit.
    capture: Option<(usize, Vec<CaptureEntry>)>,
}

impl World {
    /// Creates an empty world with the given link configuration.
    pub fn new(link_cfg: LinkConfig) -> Self {
        World {
            now: SimTime::ZERO,
            hosts: Vec::new(),
            links: Vec::new(),
            routes: HashMap::new(),
            via_routes: HashMap::new(),
            injectors: Vec::new(),
            faults: Vec::new(),
            queue: EventQueue::new(),
            timer_at: Vec::new(),
            cpu_gen: Vec::new(),
            link_cfg,
            tick: SimDuration::from_millis(10),
            started: false,
            events: 0,
            capture: None,
        }
    }

    /// Total events the event loop has dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Creates a world with the default 155 Mbit/s ATM-like links.
    pub fn with_defaults() -> Self {
        Self::new(LinkConfig::default())
    }

    /// Adds a host; returns its index.
    pub fn add_host(&mut self, host: Host) -> usize {
        let idx = self.hosts.len();
        self.routes.insert(host.addr, idx);
        self.cpu_gen.push(vec![0; host.ncpus()]);
        self.hosts.push(host);
        self.links.push(TxLink::new(self.link_cfg));
        self.faults.push(None);
        self.timer_at.push(SimTime::NEVER);
        idx
    }

    /// Installs a fault plan on the link *into* `host`: every frame bound
    /// for it (from other hosts' links and from injectors) passes through
    /// the plan's loss/corruption/duplication/reordering/pause stage at
    /// delivery time. An inert plan ([`FaultPlan::is_none`]) removes the
    /// stage, leaving the event stream bit-identical to a fault-free
    /// world.
    pub fn set_link_faults(&mut self, host: usize, plan: FaultPlan) {
        assert!(host < self.hosts.len(), "no host {host}");
        self.faults[host] = (!plan.is_none()).then(|| LinkFaults::new(plan));
    }

    /// Fault counters for the link into `host`, if a plan is installed.
    pub fn link_fault_stats(&self, host: usize) -> Option<&FaultStats> {
        self.faults.get(host)?.as_ref().map(|f| &f.stats)
    }

    /// Schedules a frame's arrival at `dst`, passing it through the
    /// destination's fault stage if one is installed.
    fn deliver(&mut self, arrival: SimTime, dst: usize, frame: Frame, span: Option<SpanId>) {
        match &mut self.faults[dst] {
            None => {
                self.queue.schedule(arrival, Event::Frame(dst, frame, span));
            }
            Some(stage) => {
                // Duplicates keep the original span: they are causally the
                // same request.
                for (at, f) in stage.apply(arrival, frame) {
                    self.queue.schedule(at, Event::Frame(dst, f, span));
                }
            }
        }
    }

    /// Enables the capture tap: up to `limit` delivered frames are
    /// recorded as one-line summaries (`Frame::describe`), like a tcpdump
    /// for the simulation. For debugging and examples — captures cost
    /// wall-clock time, not simulated time.
    pub fn enable_capture(&mut self, limit: usize) {
        self.capture = Some((limit, Vec::new()));
    }

    /// The captured frames so far: `(arrival time, destination host,
    /// summary)`.
    pub fn capture(&self) -> &[CaptureEntry] {
        self.capture
            .as_ref()
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Declares `dst` to be reachable only via the `gateway` host: frames
    /// for `dst` emitted by any other host are delivered to the gateway,
    /// which must forward them (see `Host::enable_forwarding`).
    pub fn add_route_via(&mut self, dst: Ipv4Addr, gateway: usize) {
        self.via_routes.insert(dst, gateway);
    }

    /// Adds a traffic injector delivering frames to `target` host.
    pub fn add_injector(&mut self, target: usize, injector: Injector) -> usize {
        let idx = self.injectors.len();
        self.injectors.push((target, injector));
        idx
    }

    /// Packets emitted by injector `idx` so far.
    pub fn injector_emitted(&self, idx: usize) -> u64 {
        self.injectors[idx].1.emitted()
    }

    fn schedule(&mut self, at: SimTime, ev: Event) {
        self.queue.schedule(at, ev);
    }

    /// Boots all hosts and arms periodic events. Runs automatically on the
    /// first `run_until`.
    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.hosts.len() {
            self.hosts[i].start(self.now);
            self.schedule(self.now + self.tick, Event::Tick(i));
            self.post_host(i);
        }
        for i in 0..self.injectors.len() {
            if let Some(t) = self.injectors[i].1.next_fire() {
                self.schedule(t, Event::Inject(i));
            }
        }
    }

    /// After any host interaction: schedule its CPU completion, its next
    /// kernel timer, and pull frames onto its link.
    fn post_host(&mut self, h: usize) {
        // CPU completions, one event per busy CPU.
        for c in 0..self.hosts[h].ncpus() {
            if let Some((t, gen)) = self.hosts[h].cpu_event_on(c) {
                if gen != self.cpu_gen[h][c] {
                    self.cpu_gen[h][c] = gen;
                    self.schedule(t, Event::Cpu(h, c, gen));
                }
            }
        }
        // Kernel timer.
        if let Some(t) = self.hosts[h].next_timer_deadline() {
            if t < self.timer_at[h] {
                self.timer_at[h] = t;
                self.schedule(t.max(self.now), Event::Timer(h));
            }
        }
        // Transmit.
        self.pump_link(h);
    }

    /// Starts one transmission if the link is idle and the interface
    /// queue is non-empty; the LinkFree event pulls the next frame.
    fn pump_link(&mut self, h: usize) {
        if !self.links[h].idle_at(self.now) {
            return;
        }
        let Some((frame, span)) = self.hosts[h].ifq_dequeue_spanned() else {
            return;
        };
        let (done, arrival) = self.links[h].transmit(self.now, &frame);
        if let Some(dst) = self.route_of(&frame, Some(h)) {
            self.deliver(arrival, dst, frame, span);
        }
        self.schedule(done, Event::LinkFree(h));
    }

    fn route_of(&self, frame: &Frame, origin: Option<usize>) -> Option<usize> {
        match frame {
            Frame::Ipv4(b) => {
                let h = ipv4::Ipv4Header::decode(b).ok()?;
                if let Some(&gw) = self.via_routes.get(&h.dst) {
                    if origin != Some(gw) {
                        return Some(gw);
                    }
                }
                self.routes.get(&h.dst).copied()
            }
            Frame::Arp(_) => None, // Broadcast ARP is not routed in the world.
        }
    }

    /// Runs the simulation until `t_end` (events at exactly `t_end`
    /// included).
    pub fn run_until(&mut self, t_end: SimTime) {
        self.start();
        while let Some((t, ev)) = self.queue.pop_before(t_end) {
            self.now = t;
            self.events += 1;
            match ev {
                Event::Frame(h, frame, span) => {
                    if let Some((limit, log)) = &mut self.capture {
                        if log.len() < *limit {
                            log.push((t, h, frame.describe()));
                        }
                    }
                    self.hosts[h].on_frame_span(t, frame, span);
                    self.post_host(h);
                }
                Event::Cpu(h, c, gen) => {
                    self.hosts[h].on_cpu_complete(t, c, gen);
                    self.post_host(h);
                }
                Event::Timer(h) => {
                    self.timer_at[h] = SimTime::NEVER;
                    self.hosts[h].on_timer(t);
                    self.post_host(h);
                }
                Event::Tick(h) => {
                    self.hosts[h].on_tick(t);
                    self.schedule(t + self.tick, Event::Tick(h));
                    self.post_host(h);
                }
                Event::LinkFree(h) => {
                    self.pump_link(h);
                    self.post_host(h);
                }
                Event::Inject(i) => {
                    let (target, inj) = &mut self.injectors[i];
                    let target = *target;
                    // Mint the causal span before firing: injector index
                    // in the high bits, per-injector sequence below.
                    let span: SpanId = ((i as u64 + 1) << 48) | inj.emitted();
                    let frame = inj.fire();
                    let next = inj.next_fire();
                    let latency = self.link_cfg.latency;
                    self.hosts[target].note_injected_span(t, span);
                    self.deliver(t + latency, target, frame, Some(span));
                    if let Some(nt) = next {
                        self.schedule(nt, Event::Inject(i));
                    }
                }
            }
            // Sampled, not after every event: one check walks every socket
            // and process (5x the debug run time of the churn scenarios at
            // a stride of 16), and an index that has drifted stays
            // drifted. The stride is prime so the sample cannot lock onto
            // a periodic event pattern (always landing on a tick, say).
            #[cfg(debug_assertions)]
            if self.events.is_multiple_of(251) {
                for (h, host) in self.hosts.iter().enumerate() {
                    if let Err(e) = host.check_indexes() {
                        panic!("host {h} index out of step by the event at {t:?}: {e}");
                    }
                }
            }
        }
        self.now = t_end.max(self.now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Architecture, HostConfig};

    #[test]
    fn empty_world_runs() {
        let mut w = World::with_defaults();
        w.run_until(SimTime::from_millis(10));
        assert!(w.now >= SimTime::from_millis(10));
    }

    #[test]
    fn add_host_routes_by_address() {
        let mut w = World::with_defaults();
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let h = w.add_host(Host::new(HostConfig::new(Architecture::Bsd), a));
        assert_eq!(w.routes.get(&a), Some(&h));
    }
}
