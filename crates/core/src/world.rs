//! The simulation world: hosts, links, injectors and the global event
//! loop.

use crate::config::TICK;
use crate::host::Host;
use lrp_net::{FaultPlan, FaultStats, Injector, LinkConfig, LinkFaults, TxLink};
use lrp_sim::{EventQueue, SimTime};
use lrp_wire::{ipv4, Frame, Ipv4Addr};
use std::collections::HashMap;
use std::num::NonZeroU64;

/// One captured frame: `(arrival time, destination host, summary)`.
pub type CaptureEntry = (SimTime, usize, String);

/// Global simulation events. Host, CPU and injector indices are `u32`
/// and a span is never 0 (the world and the hosts mint them tagged), so
/// an event is 32 bytes: the queue moves every one at least twice.
#[derive(Debug)]
pub enum Event {
    /// A frame arrives at a host's NIC, with its causal-trace span (if
    /// any). The span is observational: it never alters simulation state.
    Frame(u32, Frame, Option<NonZeroU64>),
    /// A work chunk completes on `(host, cpu)` (generation-guarded).
    Cpu(u32, u32, u64),
    /// A host kernel timer may be due.
    Timer(u32),
    /// Statclock tick for a host.
    Tick(u32),
    /// A host's transmit link became free.
    LinkFree(u32),
    /// A traffic injector fires.
    Inject(u32),
}

/// The variants' names, in [`Event::kind`] order.
#[cfg(debug_assertions)]
const EVENT_KINDS: [&str; 6] = ["Frame", "Cpu", "Timer", "Tick", "LinkFree", "Inject"];

impl Event {
    /// The variant's index in `EVENT_KINDS`.
    #[cfg(debug_assertions)]
    fn kind(&self) -> usize {
        match self {
            Event::Frame(..) => 0,
            Event::Cpu(..) => 1,
            Event::Timer(_) => 2,
            Event::Tick(_) => 3,
            Event::LinkFree(_) => 4,
            Event::Inject(_) => 5,
        }
    }
}

/// Debug builds panic when this many events in a row share one instant:
/// a zero-time event storm, where something keeps rescheduling itself
/// without simulated time moving. 100x the longest run any test reaches.
#[cfg(debug_assertions)]
const STORM_LIMIT: u32 = 60_200;

/// Counts the events of the current instant and which kinds they were
/// (one bit per `EVENT_KINDS` entry).
#[cfg(debug_assertions)]
#[derive(Default)]
struct StormGuard {
    at: Option<SimTime>,
    run: u32,
    kinds: u8,
}

#[cfg(debug_assertions)]
impl StormGuard {
    fn note(&mut self, t: SimTime, ev: &Event) {
        if self.at != Some(t) {
            *self = StormGuard {
                at: Some(t),
                ..StormGuard::default()
            };
        }
        self.run += 1;
        self.kinds |= 1 << ev.kind();
        if self.run > STORM_LIMIT {
            let kinds: Vec<&str> = (0..EVENT_KINDS.len())
                .filter(|k| self.kinds & (1 << k) != 0)
                .map(|k| EVENT_KINDS[k])
                .collect();
            panic!(
                "zero-time event storm: {} events at {t:?}, kinds {kinds:?}",
                self.run
            );
        }
    }
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
    fn deliver(&mut self, arrival: SimTime, dst: usize, frame: Frame, span: Option<NonZeroU64>) {
        let (faults, dst) = (&mut self.faults[dst], dst as u32);
        match faults {
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
            self.schedule(self.now + TICK, Event::Tick(i as u32));
            self.post_host(i);
        }
        for i in 0..self.injectors.len() {
            if let Some(t) = self.injectors[i].1.next_fire() {
                self.schedule(t, Event::Inject(i as u32));
            }
        }
    }

    /// After a host handled an event: schedule a completion for each CPU
    /// that started a chunk since, a timer event if its earliest deadline
    /// moved before the one scheduled, and pull frames onto its link.
    /// Nothing else a host event does can need a new event.
    fn post_host(&mut self, h: usize) {
        let mut started = self.hosts[h].take_started_cpus();
        while started != 0 {
            let c = started.trailing_zeros() as usize;
            started &= started - 1;
            // A CPU that started a chunk and is idle again (preempted by
            // a crash, say) has nothing to complete.
            if let Some((t, gen)) = self.hosts[h].cpu_event_on(c) {
                debug_assert_ne!(
                    gen, self.cpu_gen[h][c],
                    "a started chunk bumps its generation"
                );
                self.cpu_gen[h][c] = gen;
                self.schedule(t, Event::Cpu(h as u32, c as u32, gen));
            }
        }
        if let Some(t) = self.hosts[h].next_timer_deadline() {
            if t < self.timer_at[h] {
                self.timer_at[h] = t;
                self.schedule(t.max(self.now), Event::Timer(h as u32));
            }
        }
        self.pump_link(h);
    }

    /// Starts one transmission if the link is idle and the interface
    /// queue is non-empty; the LinkFree event pulls the next frame.
    fn pump_link(&mut self, h: usize) {
        if !self.links[h].idle_at(self.now) {
            return;
        }
        let Some((frame, span)) = self.hosts[h].nic.ifq_dequeue() else {
            return;
        };
        let (done, arrival) = self.links[h].transmit(self.now, &frame);
        if let Some(dst) = self.route_of(&frame, Some(h)) {
            self.deliver(arrival, dst, frame, span);
        }
        self.schedule(done, Event::LinkFree(h as u32));
    }

    /// The host a frame sent by `origin` goes to. Only the destination
    /// address is read: the frame comes from a host's interface queue,
    /// so the host built its header, and the fault stage that could
    /// damage it runs after routing.
    fn route_of(&self, frame: &Frame, origin: Option<usize>) -> Option<usize> {
        match frame {
            Frame::Ipv4(b) => {
                debug_assert!(
                    ipv4::Ipv4Header::decode(b).is_ok(),
                    "a host queued a datagram with a bad header"
                );
                let dst: [u8; 4] = b.get(16..20)?.try_into().ok()?;
                let dst = Ipv4Addr::from(dst);
                if let Some(&gw) = self.via_routes.get(&dst) {
                    if origin != Some(gw) {
                        return Some(gw);
                    }
                }
                self.routes.get(&dst).copied()
            }
            Frame::Arp(_) => None, // Broadcast ARP is not routed in the world.
        }
    }

    /// Runs the simulation until `t_end` (events at exactly `t_end`
    /// included).
    pub fn run_until(&mut self, t_end: SimTime) {
        self.start();
        #[cfg(debug_assertions)]
        let mut storm = StormGuard::default();
        while let Some((t, ev)) = self.queue.pop_before(t_end) {
            self.now = t;
            self.events += 1;
            #[cfg(debug_assertions)]
            storm.note(t, &ev);
            match ev {
                Event::Frame(h, frame, span) => {
                    let h = h as usize;
                    if let Some((limit, log)) = &mut self.capture {
                        if log.len() < *limit {
                            log.push((t, h, frame.describe()));
                        }
                    }
                    self.hosts[h].on_frame_span(t, frame, span);
                    self.post_host(h);
                }
                Event::Cpu(h, c, gen) => {
                    let h = h as usize;
                    self.hosts[h].on_cpu_complete(t, c as usize, gen);
                    self.post_host(h);
                }
                Event::Timer(h) => {
                    let h = h as usize;
                    self.timer_at[h] = SimTime::NEVER;
                    self.hosts[h].on_timer(t);
                    self.post_host(h);
                }
                Event::Tick(h) => {
                    self.hosts[h as usize].on_tick(t);
                    self.schedule(t + TICK, Event::Tick(h));
                    self.post_host(h as usize);
                }
                // The link, not the host, changed: nothing else can be
                // due.
                Event::LinkFree(h) => self.pump_link(h as usize),
                Event::Inject(i) => {
                    let (target, inj) = &mut self.injectors[i as usize];
                    let target = *target;
                    // Mint the causal span before firing: injector index
                    // in the high bits, per-injector sequence below.
                    let span = NonZeroU64::new(((i as u64 + 1) << 48) | inj.emitted())
                        .expect("the injector tag is non-zero");
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
                    if let Err(e) = host.check_invariants() {
                        panic!("host {h} out of step by the event at {t:?}: {e}");
                    }
                    for c in 0..host.ncpus() {
                        if let Some((_, gen)) = host.cpu_event_on(c) {
                            assert!(
                                gen == self.cpu_gen[h][c] || host.cpus_started & (1 << c) != 0,
                                "host {h} cpu {c}: generation {gen} runs unscheduled at {t:?}"
                            );
                        }
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
    fn an_event_is_32_bytes_and_queues_in_48() {
        const { assert!(std::mem::size_of::<Event>() <= 32) };
        const { assert!(EventQueue::<Event>::ENTRY_BYTES <= 48) };
    }

    /// The other per-event records, pinned as `Event` is: `Running` is
    /// written for every chunk a CPU starts, and `ProcExec` for every
    /// process parked off a CPU.
    #[test]
    fn a_chunk_is_88_bytes_and_an_exec_72() {
        use crate::host::{ProcExec, Running};
        use std::mem::size_of;
        let sizes = [size_of::<Running>(), size_of::<ProcExec>()];
        println!("Running {} B, ProcExec {} B", sizes[0], sizes[1]);
        assert_eq!(sizes, [88, 72]);
    }

    /// A queued receive frame, on an NI channel or BSD's IP queue, is its
    /// 16-byte frame and a 16-byte stamp; a datagram in a socket buffer
    /// carries its span in 8 bytes beside its endpoint and payload.
    #[test]
    fn a_queued_frame_is_32_bytes_and_a_datagram_24() {
        use lrp_nic::Stamp;
        use lrp_stack::sockbuf::Datagram;
        use std::mem::size_of;
        let sizes = [
            size_of::<Frame>(),
            size_of::<(Frame, Stamp)>(),
            size_of::<(lrp_wire::Endpoint, lrp_wire::FrameBuf)>(),
            size_of::<Datagram>(),
        ];
        println!(
            "Frame {} B, queued {} B, datagram {} B of {} B",
            sizes[0], sizes[1], sizes[3], sizes[2]
        );
        assert_eq!(sizes, [16, 32, 16, 24]);
    }

    /// A socket-table slot, in a page of `PAGE` whether live or not
    /// (listener state is in `Host::listeners`; a child's links on its
    /// listener's queue, eight bytes, are in the slot).
    const _: () = assert!(std::mem::size_of::<Option<crate::host::Socket>>() == 192);

    #[test]
    fn add_host_routes_by_address() {
        let mut w = World::with_defaults();
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let h = w.add_host(Host::new(HostConfig::new(Architecture::Bsd), a));
        assert_eq!(w.routes.get(&a), Some(&h));
    }
}
