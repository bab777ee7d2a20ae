//! Early packet demultiplexing — the heart of LRP (§3.2 of the paper).
//!
//! The paper requires the demux function to be *self-contained*, with
//! "minimal requirements on its execution environment (non-blocking, no
//! dynamic memory allocation, no timers)", so that it can run either in NIC
//! firmware (NI-LRP) or in the host interrupt handler (SOFT-LRP). This
//! crate honours that constraint: classification allocates nothing — the
//! endpoint table is a fixed-capacity open-addressing hash table allocated
//! once at channel-registration time, and packet parsing borrows from the
//! frame.
//!
//! Classification rules (matching the paper):
//!
//! - TCP/UDP packets match an endpoint by exact 5-tuple first (connected
//!   sockets), then by wildcard `(proto, local_port)` (listening or
//!   unconnected sockets).
//! - A non-first IP fragment has no transport header, so it cannot be
//!   classified; it goes to a **special fragment channel** that the IP
//!   reassembly code consults when it misses fragments.
//! - ICMP and ARP go to per-protocol **proxy daemon** channels (§3.5).
//! - Packets whose destination address is not local go to the IP
//!   **forwarding daemon** channel.
//! - Anything unmatched or malformed is reported as such; the NI drops it.
//!
//! # Examples
//!
//! ```
//! use lrp_demux::{DemuxTable, Verdict, ChannelId};
//! use lrp_wire::{udp, Frame, FlowKey, Endpoint, Ipv4Addr, proto};
//!
//! let local = Ipv4Addr::new(10, 0, 0, 2);
//! let mut table = DemuxTable::new(64, local);
//! let sock = Endpoint::new(local, 7777);
//! table.register(FlowKey::listening(proto::UDP, sock), ChannelId(3)).unwrap();
//!
//! let dgram = udp::build_datagram(Ipv4Addr::new(10, 0, 0, 1), local, 5, 7777, 1, b"hi", true);
//! let verdict = table.classify(&Frame::ipv4(dgram));
//! assert_eq!(verdict, Verdict::Endpoint(ChannelId(3)));
//! ```

#![warn(missing_docs)]

use lrp_wire::{ipv4, proto, tcp, udp, Endpoint, FlowKey, Frame, Ipv4Addr};

/// Identifies one NI channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

/// The classification result for one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver to the endpoint's NI channel.
    Endpoint(ChannelId),
    /// A non-first IP fragment: deliver to the special fragment channel.
    Fragment,
    /// ICMP: deliver to the ICMP proxy daemon's channel.
    IcmpDaemon,
    /// ARP: deliver to the ARP proxy daemon's channel.
    ArpDaemon,
    /// Destination is not a local address: deliver to the IP-forwarding
    /// daemon's channel.
    Forward,
    /// No endpoint is bound to the destination: drop.
    NoMatch,
    /// The packet failed basic validation: drop.
    Malformed,
}

/// A table slot. (Not `Option<(FlowKey, ChannelId)>`: the enum packs its
/// tag beside the fields, the option pads the tuple first — 20 bytes
/// against 24, over thousands of slots per host.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    Empty,
    Used(FlowKey, ChannelId),
}

/// Errors from table mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableError {
    /// The table is full; no channel can be registered.
    Full,
    /// The key is already registered.
    Exists,
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Full => write!(f, "demux table full"),
            TableError::Exists => write!(f, "flow key already registered"),
        }
    }
}

impl std::error::Error for TableError {}

/// The endpoint match table: a fixed-capacity open-addressing hash table
/// suitable for NIC firmware (no allocation after construction).
///
/// Linear probing with backward-shift deletion: a slot is either empty or
/// holds an entry, so the load factor (kept under 50% by `register`) is
/// the only thing probe length depends on, however many keys have come
/// and gone.
#[derive(Debug)]
pub struct DemuxTable {
    slots: Box<[Slot]>,
    used: usize,
    local_addr: Ipv4Addr,
    /// Statistics: classification calls by outcome.
    stats: DemuxStats,
}

/// Counters describing classification outcomes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DemuxStats {
    /// Frames matched to an endpoint channel.
    pub endpoint: u64,
    /// Non-first fragments routed to the fragment channel.
    pub fragment: u64,
    /// Frames routed to proxy daemons (ICMP + ARP + forward).
    pub daemon: u64,
    /// Frames with no matching endpoint.
    pub no_match: u64,
    /// Malformed frames.
    pub malformed: u64,
}

// FNV-1a over the flow key; cheap enough for firmware and good enough for a
// load factor kept under 50%.
fn hash_key(k: &FlowKey) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    feed(k.proto);
    for b in k.local.addr.octets() {
        feed(b);
    }
    for b in k.local.port.to_be_bytes() {
        feed(b);
    }
    for b in k.remote.addr.octets() {
        feed(b);
    }
    for b in k.remote.port.to_be_bytes() {
        feed(b);
    }
    h
}

impl DemuxTable {
    /// Creates a table able to hold `capacity` endpoints, for a host whose
    /// (single-interface) address is `local_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, local_addr: Ipv4Addr) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        // Size to 2x capacity (next power of two) to keep probes short.
        let size = (capacity * 2).next_power_of_two();
        DemuxTable {
            slots: vec![Slot::Empty; size].into_boxed_slice(),
            used: 0,
            local_addr,
            stats: DemuxStats::default(),
        }
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.used
    }

    /// True if no endpoints are registered.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Classification statistics so far.
    pub fn stats(&self) -> DemuxStats {
        self.stats
    }

    /// The host address this table classifies for.
    pub fn local_addr(&self) -> Ipv4Addr {
        self.local_addr
    }

    /// Registers a flow key to a channel.
    ///
    /// Connected sockets register an exact 5-tuple; listening/unconnected
    /// sockets register a wildcard key ([`FlowKey::listening`]).
    pub fn register(&mut self, key: FlowKey, chan: ChannelId) -> Result<(), TableError> {
        if self.used * 2 >= self.slots.len() {
            return Err(TableError::Full);
        }
        let mask = self.slots.len() - 1;
        let mut idx = (hash_key(&key) as usize) & mask;
        loop {
            match self.slots[idx] {
                Slot::Used(k, _) if k == key => return Err(TableError::Exists),
                Slot::Used(..) => idx = (idx + 1) & mask,
                Slot::Empty => {
                    self.slots[idx] = Slot::Used(key, chan);
                    self.used += 1;
                    return Ok(());
                }
            }
        }
    }

    /// The slot holding `key` and its channel, if registered. Terminates
    /// because the load factor bound leaves empty slots in every probe
    /// chain.
    fn find(&self, key: &FlowKey) -> Option<(usize, ChannelId)> {
        let mask = self.slots.len() - 1;
        let mut idx = (hash_key(key) as usize) & mask;
        loop {
            match self.slots[idx] {
                Slot::Used(k, c) if k == *key => return Some((idx, c)),
                Slot::Used(..) => idx = (idx + 1) & mask,
                Slot::Empty => return None,
            }
        }
    }

    /// Removes a flow key; returns the channel it mapped to, if any.
    pub fn unregister(&mut self, key: &FlowKey) -> Option<ChannelId> {
        let mask = self.slots.len() - 1;
        let (mut hole, chan) = self.find(key)?;
        self.slots[hole] = Slot::Empty;
        self.used -= 1;
        // Backward shift: pull each later entry of the probe chain into
        // the hole unless its home slot lies after the hole, so no chain
        // is ever broken and no deleted-marker is needed.
        let mut idx = hole;
        loop {
            idx = (idx + 1) & mask;
            let Slot::Used(k, _) = self.slots[idx] else {
                return Some(chan);
            };
            let home = (hash_key(&k) as usize) & mask;
            if (idx.wrapping_sub(home) & mask) >= (idx.wrapping_sub(hole) & mask) {
                self.slots.swap(hole, idx);
                hole = idx;
            }
        }
    }

    /// Looks up an exact key. No allocation.
    pub fn lookup(&self, key: &FlowKey) -> Option<ChannelId> {
        self.find(key).map(|(_, c)| c)
    }

    /// Looks up a transport flow: exact 5-tuple first, then the wildcard
    /// (listening) key. No allocation.
    pub fn lookup_flow(
        &self,
        ip_proto: u8,
        local: Endpoint,
        remote: Endpoint,
    ) -> Option<ChannelId> {
        if let Some(c) = self.lookup(&FlowKey::new(ip_proto, local, remote)) {
            return Some(c);
        }
        self.lookup(&FlowKey::listening(ip_proto, local))
    }

    /// Classifies one frame. This is the function the paper places either
    /// in NIC firmware or in the host interrupt handler.
    ///
    /// No allocation, no blocking, no timers: suitable for either context.
    pub fn classify(&mut self, frame: &Frame) -> Verdict {
        let v = self.classify_inner(frame);
        match v {
            Verdict::Endpoint(_) => self.stats.endpoint += 1,
            Verdict::Fragment => self.stats.fragment += 1,
            Verdict::IcmpDaemon | Verdict::ArpDaemon | Verdict::Forward => self.stats.daemon += 1,
            Verdict::NoMatch => self.stats.no_match += 1,
            Verdict::Malformed => self.stats.malformed += 1,
        }
        v
    }

    fn classify_inner(&self, frame: &Frame) -> Verdict {
        let bytes = match frame {
            Frame::Arp(_) => return Verdict::ArpDaemon,
            Frame::Ipv4(b) => b,
        };
        let Ok(ih) = ipv4::Ipv4Header::decode(bytes) else {
            return Verdict::Malformed;
        };
        if ih.dst != self.local_addr {
            return Verdict::Forward;
        }
        // Non-first fragments carry no transport header; the paper routes
        // them to a special channel checked by IP reassembly.
        if ih.is_fragment() && !ih.is_first_fragment() {
            return Verdict::Fragment;
        }
        let payload = &bytes[ipv4::HEADER_LEN..ih.total_len as usize];
        match ih.proto {
            proto::ICMP => Verdict::IcmpDaemon,
            proto::UDP => {
                let Ok((uh, _)) = udp::parse_ports(payload) else {
                    return Verdict::Malformed;
                };
                let local = Endpoint::new(ih.dst, uh.1);
                let remote = Endpoint::new(ih.src, uh.0);
                match self.lookup_flow(proto::UDP, local, remote) {
                    Some(c) => Verdict::Endpoint(c),
                    None => Verdict::NoMatch,
                }
            }
            proto::TCP => {
                let Ok((th, _)) = tcp::parse_ports(payload) else {
                    return Verdict::Malformed;
                };
                let local = Endpoint::new(ih.dst, th.1);
                let remote = Endpoint::new(ih.src, th.0);
                match self.lookup_flow(proto::TCP, local, remote) {
                    Some(c) => Verdict::Endpoint(c),
                    None => Verdict::NoMatch,
                }
            }
            _ => Verdict::NoMatch,
        }
    }
}

/// RSS-style receive hash over a flow key (§SMP extension). The hash feeds
/// multi-queue RX steering: every frame of one flow must land on the same
/// RX queue, so the hash covers exactly the fields that identify the flow
/// — protocol, addresses, ports — and nothing else. It is independent of
/// payload bytes, lengths, TTL and checksums *by construction*: a
/// [`FlowKey`] carries none of those.
///
/// The same FNV-1a mix as the endpoint table uses, folded to 32 bits, so
/// NIC steering and channel lookup agree on what "a flow" is.
pub fn rss_hash(key: &FlowKey) -> u32 {
    let h = hash_key(key);
    (h ^ (h >> 32)) as u32
}

/// Maps a flow key to an RX queue index in `0..nqueues`.
///
/// # Panics
///
/// Panics if `nqueues` is zero.
pub fn rss_queue(key: &FlowKey, nqueues: usize) -> usize {
    assert!(nqueues > 0, "a NIC has at least one RX queue");
    rss_hash(key) as usize % nqueues
}

/// Extracts the full 5-tuple flow key an RSS engine would hash, using the
/// *same* parsing as [`DemuxTable::classify`] so steering and demux agree.
/// Returns `None` for traffic that has no transport flow (ARP, ICMP,
/// non-first fragments, malformed or non-local frames) — the NIC steers
/// those to queue 0, where the fragment/proxy machinery lives.
pub fn rss_flow_key(frame: &Frame, local_addr: Ipv4Addr) -> Option<FlowKey> {
    let bytes = match frame {
        Frame::Arp(_) => return None,
        Frame::Ipv4(b) => b,
    };
    let ih = ipv4::Ipv4Header::decode(bytes).ok()?;
    if ih.dst != local_addr {
        return None;
    }
    if ih.is_fragment() && !ih.is_first_fragment() {
        return None;
    }
    let payload = &bytes[ipv4::HEADER_LEN..ih.total_len as usize];
    match ih.proto {
        proto::UDP => {
            let (sport, dport) = udp::parse_ports(payload).ok()?.0;
            Some(FlowKey::new(
                proto::UDP,
                Endpoint::new(ih.dst, dport),
                Endpoint::new(ih.src, sport),
            ))
        }
        proto::TCP => {
            let (sport, dport) = tcp::parse_ports(payload).ok()?.0;
            Some(FlowKey::new(
                proto::TCP,
                Endpoint::new(ih.dst, dport),
                Endpoint::new(ih.src, sport),
            ))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrp_wire::tcp::flags;

    const LOCAL: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn table() -> DemuxTable {
        DemuxTable::new(32, LOCAL)
    }

    fn udp_frame(sport: u16, dport: u16) -> Frame {
        Frame::ipv4(udp::build_datagram(
            PEER, LOCAL, sport, dport, 1, b"x", true,
        ))
    }

    fn tcp_frame(sport: u16, dport: u16, fl: u8) -> Frame {
        let h = tcp::TcpHeader {
            src_port: sport,
            dst_port: dport,
            seq: 1,
            ack: 0,
            flags: fl,
            window: 1024,
            mss: None,
        };
        Frame::ipv4(tcp::build_datagram(PEER, LOCAL, &h, 2, b""))
    }

    #[test]
    fn udp_wildcard_match() {
        let mut t = table();
        t.register(
            FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 53)),
            ChannelId(1),
        )
        .unwrap();
        assert_eq!(
            t.classify(&udp_frame(999, 53)),
            Verdict::Endpoint(ChannelId(1))
        );
        assert_eq!(t.classify(&udp_frame(999, 54)), Verdict::NoMatch);
        assert_eq!(t.stats().endpoint, 1);
        assert_eq!(t.stats().no_match, 1);
    }

    #[test]
    fn exact_match_beats_wildcard() {
        let mut t = table();
        let local = Endpoint::new(LOCAL, 80);
        t.register(FlowKey::listening(proto::TCP, local), ChannelId(1))
            .unwrap();
        t.register(
            FlowKey::new(proto::TCP, local, Endpoint::new(PEER, 5000)),
            ChannelId(2),
        )
        .unwrap();
        assert_eq!(
            t.classify(&tcp_frame(5000, 80, flags::ACK)),
            Verdict::Endpoint(ChannelId(2))
        );
        // A SYN from a different client port falls back to the listener.
        assert_eq!(
            t.classify(&tcp_frame(5001, 80, flags::SYN)),
            Verdict::Endpoint(ChannelId(1))
        );
    }

    #[test]
    fn non_first_fragment_goes_to_fragment_channel() {
        let mut t = table();
        t.register(
            FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 9000)),
            ChannelId(4),
        )
        .unwrap();
        let udp_seg = udp::build(PEER, LOCAL, 1, 9000, &[0u8; 4000], true);
        let frags = ipv4::fragment(PEER, LOCAL, proto::UDP, 77, &udp_seg, 1500);
        assert!(frags.len() > 1);
        // First fragment carries the UDP header: endpoint match.
        assert_eq!(
            t.classify(&Frame::ipv4(frags[0].clone())),
            Verdict::Endpoint(ChannelId(4))
        );
        // Later fragments cannot be classified.
        assert_eq!(
            t.classify(&Frame::ipv4(frags[1].clone())),
            Verdict::Fragment
        );
    }

    #[test]
    fn icmp_and_arp_route_to_daemons() {
        let mut t = table();
        let icmp_pkt = lrp_wire::icmp::build_datagram(
            PEER,
            LOCAL,
            3,
            &lrp_wire::icmp::IcmpMessage {
                kind: lrp_wire::icmp::IcmpType::EchoRequest,
                ident: 1,
                seq: 1,
                payload: vec![],
            },
        );
        assert_eq!(t.classify(&Frame::ipv4(icmp_pkt)), Verdict::IcmpDaemon);
        assert_eq!(t.classify(&Frame::arp(vec![0; 20])), Verdict::ArpDaemon);
        assert_eq!(t.stats().daemon, 2);
    }

    #[test]
    fn non_local_destination_forwards() {
        let mut t = table();
        let other = Ipv4Addr::new(10, 0, 0, 99);
        let dgram = udp::build_datagram(PEER, other, 1, 2, 1, b"x", true);
        assert_eq!(t.classify(&Frame::ipv4(dgram)), Verdict::Forward);
    }

    #[test]
    fn malformed_rejected() {
        let mut t = table();
        assert_eq!(
            t.classify(&Frame::ipv4(vec![0x45, 0, 0])),
            Verdict::Malformed
        );
        // Corrupted IP checksum.
        let mut dgram = udp::build_datagram(PEER, LOCAL, 1, 2, 1, b"x", true);
        dgram[9] ^= 0xFF;
        assert_eq!(t.classify(&Frame::ipv4(dgram)), Verdict::Malformed);
        assert_eq!(t.stats().malformed, 2);
    }

    #[test]
    fn register_duplicate_fails() {
        let mut t = table();
        let k = FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 1));
        t.register(k, ChannelId(1)).unwrap();
        assert_eq!(t.register(k, ChannelId(2)), Err(TableError::Exists));
    }

    #[test]
    fn table_fills_up() {
        let mut t = DemuxTable::new(2, LOCAL);
        // Capacity 2 => table size 4 => at most 2 entries (load factor 1/2).
        t.register(
            FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 1)),
            ChannelId(1),
        )
        .unwrap();
        t.register(
            FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 2)),
            ChannelId(2),
        )
        .unwrap();
        assert_eq!(
            t.register(
                FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 3)),
                ChannelId(3),
            ),
            Err(TableError::Full)
        );
    }

    #[test]
    fn unregister_then_reuse() {
        let mut t = table();
        let k = FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 7));
        t.register(k, ChannelId(9)).unwrap();
        assert_eq!(t.unregister(&k), Some(ChannelId(9)));
        assert_eq!(t.unregister(&k), None);
        assert_eq!(t.len(), 0);
        t.register(k, ChannelId(10)).unwrap();
        assert_eq!(t.lookup(&k), Some(ChannelId(10)));
    }

    #[test]
    fn deletion_does_not_break_probe_chains() {
        let mut t = DemuxTable::new(8, LOCAL);
        let keys: Vec<FlowKey> = (0..8)
            .map(|i| FlowKey::listening(proto::UDP, Endpoint::new(LOCAL, 100 + i)))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            t.register(*k, ChannelId(i as u32)).unwrap();
        }
        // Remove every other key, then verify the rest still resolve.
        for k in keys.iter().step_by(2) {
            t.unregister(k);
        }
        for (i, k) in keys.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(t.lookup(k), None);
            } else {
                assert_eq!(t.lookup(k), Some(ChannelId(i as u32)));
            }
        }
    }
}
