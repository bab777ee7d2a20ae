//! Wire formats for the LRP reproduction: IPv4, UDP, TCP, ICMP and ARP on
//! real bytes.
//!
//! Every packet in the simulation is an actual byte buffer with real
//! headers, checksums and fragmentation — the demultiplexing function
//! (`lrp-demux`) and the protocol engines (`lrp-stack`) parse these bytes
//! exactly as a kernel would. This keeps the architectural comparison
//! honest: demux cost, checksum cost and header processing all operate on
//! genuine packet data.
//!
//! The bytes themselves live in the frame arena ([`arena`]), behind
//! [`FrameBuf`] ([`buf`]), so steady-state traffic does no allocator work.
//!
//! # Examples
//!
//! ```
//! use lrp_wire::{Ipv4Addr, udp};
//!
//! let src = Ipv4Addr::new(10, 0, 0, 1);
//! let dst = Ipv4Addr::new(10, 0, 0, 2);
//! let datagram = udp::build_datagram(src, dst, 4000, 5000, 77, b"ping", true);
//! let (ip, payload) = lrp_wire::ipv4::parse(&datagram).unwrap();
//! assert_eq!(ip.dst, dst);
//! let (u, body) = udp::parse(payload).unwrap();
//! assert_eq!(u.dst_port, 5000);
//! assert_eq!(body, b"ping");
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod arp;
pub mod buf;
pub mod checksum;
pub mod frame;
pub mod icmp;
pub mod ipv4;
pub mod spare;
pub mod tcp;
pub mod udp;

pub use buf::{frame_arena_stats, FrameBuf, FrameSlice};
pub use frame::Frame;
pub use std::net::Ipv4Addr;

/// IP protocol numbers used by the simulation.
pub mod proto {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// Errors produced when parsing packet bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the header demands.
    Truncated,
    /// A version, header-length or length field is inconsistent.
    Malformed,
    /// A checksum did not verify.
    BadChecksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::Malformed => write!(f, "packet malformed"),
            WireError::BadChecksum => write!(f, "bad checksum"),
        }
    }
}

impl std::error::Error for WireError {}

/// A transport-layer endpoint (address, port).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: Ipv4Addr,
    /// Port number.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint.
    pub const fn new(addr: Ipv4Addr, port: u16) -> Self {
        Endpoint { addr, port }
    }

    /// The wildcard endpoint `0.0.0.0:0`.
    pub const ANY: Endpoint = Endpoint {
        addr: Ipv4Addr::UNSPECIFIED,
        port: 0,
    };
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// A connection 5-tuple key (protocol, local, remote) identifying a flow.
///
/// `remote == Endpoint::ANY` denotes a wildcard (listening / unconnected)
/// key, matching BSD PCB semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// IP protocol number ([`proto::UDP`] or [`proto::TCP`]).
    pub proto: u8,
    /// Local endpoint (this host).
    pub local: Endpoint,
    /// Remote endpoint, or [`Endpoint::ANY`] for wildcard.
    pub remote: Endpoint,
}

impl FlowKey {
    /// Creates a fully specified flow key.
    pub const fn new(proto: u8, local: Endpoint, remote: Endpoint) -> Self {
        FlowKey {
            proto,
            local,
            remote,
        }
    }

    /// Creates a wildcard (listening) key for a local endpoint.
    pub const fn listening(proto: u8, local: Endpoint) -> Self {
        FlowKey {
            proto,
            local,
            remote: Endpoint::ANY,
        }
    }

    /// True if the remote side is a wildcard.
    pub fn is_wildcard(&self) -> bool {
        self.remote == Endpoint::ANY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display() {
        let e = Endpoint::new(Ipv4Addr::new(10, 1, 2, 3), 80);
        assert_eq!(e.to_string(), "10.1.2.3:80");
    }

    #[test]
    fn flowkey_wildcard() {
        let local = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 80);
        let k = FlowKey::listening(proto::TCP, local);
        assert!(k.is_wildcard());
        let k2 = FlowKey::new(
            proto::TCP,
            local,
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 99),
        );
        assert!(!k2.is_wildcard());
        assert_ne!(k, k2);
    }

    #[test]
    fn wire_error_display() {
        assert_eq!(WireError::Truncated.to_string(), "packet truncated");
        assert_eq!(WireError::BadChecksum.to_string(), "bad checksum");
    }
}
