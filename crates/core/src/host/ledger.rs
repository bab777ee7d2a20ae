//! The frame-disposition ledger: where every frame the NIC accepted from
//! the link ended up. Each such frame ends in exactly one bucket:
//!
//! * dropped on the NIC (ring overrun, early discard or an injected
//!   stall — NIC statistics);
//! * still queued (RX ring, an NI channel, or the shared IP queue);
//! * delivered (UDP datagram or ICMP message into a socket buffer);
//! * consumed by TCP input processing (segments are not 1:1 with
//!   user-visible deliveries, so TCP is accounted at frame granularity),
//!   unless the frame found a disposition of its own there: a backlog
//!   drop, or a SYN cookie validated or rejected;
//! * handed to IP forwarding, counted-and-ignored ARP, absorbed by the
//!   fragment reassembler or discarded when its flow expired, flushed
//!   when a channel was destroyed, dead with its crashed owner, or lost
//!   to a whole-host reboot;
//! * dropped in the host ([`DropPoint`] granularity).
//!
//! The NIC keeps its buckets in its statistics; the host keeps the rest
//! as plain counters, bumped at the line that decides a frame's fate, on
//! every host whether telemetry records or not. [`Host::packet_ledger`]
//! assembles the two halves and [`PacketLedger::conserved`] checks that
//! they sum back to the accepted count. `Host::check_invariants` checks
//! the same sum during the run (every 251st event in debug builds), and
//! experiments check it at the end of every run.

use super::{DropPoint, Host};
use lrp_demux::ChannelId;

/// The frame-disposition ledger: where every accepted frame ended up.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PacketLedger {
    /// Frames the NIC accepted from the link.
    pub accepted: u64,
    /// Dropped at the NIC receive ring.
    pub nic_ring_drops: u64,
    /// Discarded early by NI-demux firmware.
    pub nic_early_discards: u64,
    /// Dropped by an injected NIC receive stall (device fault).
    pub nic_stall_drops: u64,
    /// Still queued (RX rings + NI channels + IP queue).
    pub in_flight: u64,
    /// UDP datagrams delivered into socket buffers.
    pub delivered_udp: u64,
    /// ICMP messages delivered.
    pub delivered_icmp: u64,
    /// Frames consumed by TCP input processing.
    pub tcp_frames: u64,
    /// Frames handed to IP forwarding.
    pub forwarded: u64,
    /// ARP frames counted and ignored.
    pub arp_frames: u64,
    /// Fragments absorbed by reassembly (plus unparseable fragment-channel
    /// drainage).
    pub reasm_absorbed: u64,
    /// Fragment frames discarded by reassembly-flow expiry (moved out of
    /// `reasm_absorbed` at expiry time).
    pub reasm_expired: u64,
    /// Frames flushed at an orderly channel destruction.
    pub flushed: u64,
    /// Frames that died with their crashed owner (channel unmapped at
    /// process-crash teardown).
    pub owner_dead: u64,
    /// Frames lost in queues (rings/channels/IP queue) to a whole-host
    /// reboot.
    pub reboot_flushed: u64,
    /// Handshake ACKs consumed by successful SYN-cookie validation.
    pub cookie_validated: u64,
    /// Handshake ACKs rejected by SYN-cookie validation.
    pub cookie_rejected: u64,
    /// Host-side drops, sorted by drop-point name.
    pub host_drops: Vec<(&'static str, u64)>,
}

impl PacketLedger {
    /// Total host-side drops.
    pub fn host_dropped(&self) -> u64 {
        self.host_drops.iter().map(|(_, n)| n).sum()
    }

    /// Sum of all disposition buckets.
    pub fn disposed(&self) -> u64 {
        self.nic_ring_drops
            + self.nic_early_discards
            + self.nic_stall_drops
            + self.in_flight
            + self.delivered_udp
            + self.delivered_icmp
            + self.tcp_frames
            + self.forwarded
            + self.arp_frames
            + self.reasm_absorbed
            + self.reasm_expired
            + self.flushed
            + self.owner_dead
            + self.reboot_flushed
            + self.cookie_validated
            + self.cookie_rejected
            + self.host_dropped()
    }

    /// The DESIGN §7 packet-conservation invariant: every accepted frame
    /// is accounted for exactly once.
    pub fn conserved(&self) -> bool {
        self.accepted == self.disposed()
    }
}

impl Host {
    /// Assembles the frame-disposition ledger (see [`PacketLedger`]).
    pub fn packet_ledger(&self) -> PacketLedger {
        let mut host_drops: Vec<_> = DropPoint::ALL
            .into_iter()
            .map(|p| (p.name(), self.stats.drops.ledger(p)))
            .filter(|&(_, n)| n > 0)
            .collect();
        host_drops.sort_unstable();
        PacketLedger {
            host_drops,
            ..self.ledger_buckets()
        }
    }

    /// The ledger without its host-drop list: every bucket but that one,
    /// assembled without allocating.
    fn ledger_buckets(&self) -> PacketLedger {
        let nic = self.nic.stats();
        let queued = self.nic.ring_depth() + self.nic.channel_depth_total() + self.ip_queue.len();
        PacketLedger {
            accepted: nic.rx_frames,
            nic_ring_drops: nic.ring_drops,
            nic_early_discards: nic.early_discards,
            nic_stall_drops: nic.stall_drops,
            in_flight: queued as u64,
            delivered_udp: self.stats.udp_delivered,
            ..self.ledger.clone()
        }
    }

    /// Frames dropped in the host, over every drop point.
    pub(crate) fn ledger_dropped(&self) -> u64 {
        self.stats.drops.ledger_total()
    }

    /// `Err` unless the ledger balances. Allocates only to report a
    /// failure, so the in-run check costs no allocation.
    pub(crate) fn check_ledger(&self) -> Result<(), String> {
        let l = self.ledger_buckets();
        let disposed = l.disposed() + self.ledger_dropped();
        if l.accepted == disposed {
            return Ok(());
        }
        Err(format!(
            "packet ledger: accepted {} != disposed {disposed}: {:?}",
            l.accepted,
            self.packet_ledger()
        ))
    }

    /// A frame the host accepted dies at `p`: counted once, in host
    /// statistics' ledger row, which is the ledger's host-drop bucket.
    /// Drops outside the ledger (on the NIC, in TCP after its frame was
    /// counted, on the forward and transmit paths, at reassembly expiry)
    /// call `stats.drop_at`.
    pub(crate) fn drop_frame(&mut self, p: DropPoint) {
        self.stats.drops.add(p, super::LEDGER);
    }

    /// A frame counted into TCP input found a disposition of its own (a
    /// backlog drop, a SYN cookie validated or rejected): it leaves the
    /// TCP bucket, and the caller counts it where it went.
    pub(crate) fn reattribute_tcp_frame(&mut self) {
        debug_assert!(
            self.ledger.tcp_frames > 0,
            "re-attributed outside TCP input"
        );
        self.ledger.tcp_frames = self.ledger.tcp_frames.saturating_sub(1);
    }

    /// Whole-host reboot: drains one NI channel's still-queued frames
    /// into the `reboot_flushed` bucket without destroying the channel
    /// (per-socket channels are destroyed by the socket teardown that
    /// follows; the fragment and proxy channels are permanent and merely
    /// emptied).
    pub(crate) fn reboot_flush_channel(&mut self, chan: ChannelId) {
        while self.nic.channel_mut(chan).dequeue().is_some() {
            self.ledger.reboot_flushed += 1;
        }
        self.note_chan_empty(chan);
    }
}
