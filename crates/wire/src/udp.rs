//! UDP header encoding and parsing.

use crate::checksum::Checksum;
use crate::{ipv4, proto, Ipv4Addr, WireError};

/// Length of a UDP header.
pub const HEADER_LEN: usize = 8;

/// A parsed UDP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header + payload.
    pub len: u16,
    /// Checksum; zero means "not computed" (legal for UDP over IPv4 and the
    /// mode used in the paper's UDP throughput test).
    pub checksum: u16,
}

/// Appends the packet (header + payload) to `out`, checksummed where it
/// lies if `checksum_on`.
fn encode_into(
    out: &mut Vec<u8>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    checksum_on: bool,
) {
    let at = out.len();
    let len = (HEADER_LEN + payload.len()) as u16;
    let mut hdr = [0u8; HEADER_LEN];
    hdr[0..2].copy_from_slice(&src_port.to_be_bytes());
    hdr[2..4].copy_from_slice(&dst_port.to_be_bytes());
    hdr[4..6].copy_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&hdr);
    out.extend_from_slice(payload);
    if checksum_on {
        let mut c = Checksum::new();
        c.add_pseudo_header(src, dst, proto::UDP, len);
        c.add(&out[at..]);
        let mut sum = c.finish();
        // A computed sum of zero is transmitted as all-ones (RFC 768).
        if sum == 0 {
            sum = 0xFFFF;
        }
        out[at + 6..at + 8].copy_from_slice(&sum.to_be_bytes());
    }
}

/// Encodes a UDP packet (header + payload).
///
/// If `checksum_on` is true, computes the checksum over the pseudo-header,
/// header and payload; otherwise the checksum field is zero ("disabled"),
/// matching the paper's UDP tests.
pub fn build(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    checksum_on: bool,
) -> Vec<u8> {
    let mut out = crate::buf::storage(HEADER_LEN + payload.len());
    encode_into(&mut out, src, dst, src_port, dst_port, payload, checksum_on);
    out
}

/// Appends a complete IP datagram carrying a UDP packet to `out`: the
/// one writer behind [`build_datagram`] and [`Template`].
#[allow(clippy::too_many_arguments)]
fn write_datagram(
    out: &mut Vec<u8>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    ident: u16,
    payload: &[u8],
    checksum_on: bool,
) {
    let h = ipv4::Ipv4Header::new(src, dst, proto::UDP, ident, HEADER_LEN + payload.len());
    out.extend_from_slice(&h.encode());
    encode_into(out, src, dst, src_port, dst_port, payload, checksum_on);
}

/// Builds a complete IP datagram carrying a UDP packet: IP header, UDP
/// header and payload are written once, into one arena buffer.
pub fn build_datagram(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    ident: u16,
    payload: &[u8],
    checksum_on: bool,
) -> Vec<u8> {
    let mut out = crate::buf::storage(ipv4::HEADER_LEN + HEADER_LEN + payload.len());
    write_datagram(
        &mut out,
        src,
        dst,
        src_port,
        dst_port,
        ident,
        payload,
        checksum_on,
    );
    out
}

/// Where [`Template::stamp`] writes the sequence number: the front of
/// the UDP payload.
const SEQ_AT: usize = ipv4::HEADER_LEN + HEADER_LEN;

/// A UDP datagram without a UDP checksum, written once and stamped out
/// per packet with its own IP ident and a big-endian sequence number in
/// the payload's first 8 bytes: the bytes [`build_datagram`] writes for
/// the same fields, for a copy and three patches instead of an encode.
#[derive(Clone, Debug)]
pub struct Template {
    /// The datagram with ident 0; `stamp` overwrites the rest.
    bytes: Vec<u8>,
}

impl Template {
    /// The template of datagrams from `src:src_port` to `dst:dst_port`
    /// carrying `payload`, whose first 8 bytes each stamp replaces.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is shorter than 8 bytes.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16, payload: &[u8]) -> Self {
        assert!(payload.len() >= 8, "no room for the sequence number");
        let mut bytes = Vec::new();
        write_datagram(&mut bytes, src, dst, src_port, dst_port, 0, payload, false);
        Template { bytes }
    }

    /// The datagram with IP ident `ident` and sequence number `seq`, in
    /// arena storage.
    pub fn stamp(&self, ident: u16, seq: u64) -> Vec<u8> {
        let mut out = crate::buf::storage(self.bytes.len());
        out.extend_from_slice(&self.bytes);
        out[4..6].copy_from_slice(&ident.to_be_bytes());
        // The header sum moves by the ident word alone, which was 0
        // (RFC 1624, eqn. 3). The template's folded sum is non-zero (its
        // first word is), so the end-around-carry sum below lands on the
        // value a full re-sum yields.
        let sum = !u16::from_be_bytes([out[10], out[11]]) as u32 + ident as u32;
        let sum = (sum & 0xFFFF) + (sum >> 16);
        out[10..12].copy_from_slice(&(!(sum as u16)).to_be_bytes());
        debug_assert!(crate::checksum::verify(&out[..ipv4::HEADER_LEN]));
        out[SEQ_AT..SEQ_AT + 8].copy_from_slice(&seq.to_be_bytes());
        out
    }
}

/// Parses a UDP packet into `(header, payload)`.
///
/// Checksum verification is the caller's responsibility (it needs the
/// pseudo-header); see [`verify_checksum`].
pub fn parse(bytes: &[u8]) -> Result<(UdpHeader, &[u8]), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let len = u16::from_be_bytes([bytes[4], bytes[5]]);
    if (len as usize) < HEADER_LEN || len as usize > bytes.len() {
        return Err(WireError::Malformed);
    }
    let h = UdpHeader {
        src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
        dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
        len,
        checksum: u16::from_be_bytes([bytes[6], bytes[7]]),
    };
    Ok((h, &bytes[HEADER_LEN..len as usize]))
}

/// Reads just the `(src_port, dst_port)` pair without checksum or length
/// validation beyond header presence.
///
/// This is the minimal parse the demux function needs; it must stay cheap
/// because it runs for every arriving packet in the interrupt handler (or
/// NIC firmware).
pub fn parse_ports(bytes: &[u8]) -> Result<((u16, u16), &[u8]), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    Ok((
        (
            u16::from_be_bytes([bytes[0], bytes[1]]),
            u16::from_be_bytes([bytes[2], bytes[3]]),
        ),
        &bytes[HEADER_LEN..],
    ))
}

/// Verifies a UDP packet's checksum given the enclosing IP addresses.
///
/// Returns `true` for packets with checksum disabled (field zero).
pub fn verify_checksum(src: Ipv4Addr, dst: Ipv4Addr, udp_bytes: &[u8]) -> bool {
    if udp_bytes.len() < HEADER_LEN {
        return false;
    }
    if udp_bytes[6] == 0 && udp_bytes[7] == 0 {
        return true;
    }
    let len = u16::from_be_bytes([udp_bytes[4], udp_bytes[5]]);
    if len as usize > udp_bytes.len() {
        return false;
    }
    let mut c = Checksum::new();
    c.add_pseudo_header(src, dst, proto::UDP, len);
    c.add(&udp_bytes[..len as usize]);
    c.finish() == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
    }

    #[test]
    fn roundtrip_with_checksum() {
        let (s, d) = addrs();
        let pkt = build(s, d, 1111, 2222, b"payload", true);
        let (h, p) = parse(&pkt).unwrap();
        assert_eq!(h.src_port, 1111);
        assert_eq!(h.dst_port, 2222);
        assert_eq!(p, b"payload");
        assert!(verify_checksum(s, d, &pkt));
    }

    #[test]
    fn corrupted_payload_fails_verify() {
        let (s, d) = addrs();
        let mut pkt = build(s, d, 1111, 2222, b"payload", true);
        let n = pkt.len();
        pkt[n - 1] ^= 0x01;
        assert!(!verify_checksum(s, d, &pkt));
    }

    #[test]
    fn checksum_disabled_always_verifies() {
        let (s, d) = addrs();
        let mut pkt = build(s, d, 1, 2, b"x", false);
        assert_eq!(&pkt[6..8], &[0, 0]);
        pkt[8] ^= 0xFF;
        assert!(verify_checksum(s, d, &pkt), "disabled checksum is trusted");
    }

    #[test]
    fn wrong_addresses_fail_verify() {
        // Note: merely swapping src/dst does NOT change the checksum (the
        // one's-complement sum is commutative), so use a different address.
        let (s, d) = addrs();
        let pkt = build(s, d, 1, 2, b"data", true);
        let other = Ipv4Addr::new(10, 9, 9, 9);
        assert!(!verify_checksum(other, d, &pkt), "pseudo-header must match");
    }

    #[test]
    fn parse_rejects_truncated() {
        assert_eq!(parse(&[0u8; 4]), Err(WireError::Truncated));
    }

    #[test]
    fn parse_rejects_bad_len() {
        let (s, d) = addrs();
        let mut pkt = build(s, d, 1, 2, b"data", false);
        pkt[4..6].copy_from_slice(&2u16.to_be_bytes());
        assert_eq!(parse(&pkt), Err(WireError::Malformed));
        let mut pkt2 = build(s, d, 1, 2, b"data", false);
        pkt2[4..6].copy_from_slice(&9999u16.to_be_bytes());
        assert_eq!(parse(&pkt2), Err(WireError::Malformed));
    }

    #[test]
    fn full_datagram_parses_through_ip() {
        let (s, d) = addrs();
        let dgram = build_datagram(s, d, 4000, 53, 7, b"query", true);
        let (ih, ipayload) = ipv4::parse(&dgram).unwrap();
        assert_eq!(ih.proto, proto::UDP);
        let (uh, body) = parse(ipayload).unwrap();
        assert_eq!(uh.dst_port, 53);
        assert_eq!(body, b"query");
    }

    #[test]
    fn single_buffer_datagram_equals_layered_build() {
        let (s, d) = addrs();
        let odd: Vec<u8> = (0..1471u32).map(|i| (i * 7) as u8).collect();
        for checksum_on in [false, true] {
            for payload in [&b""[..], b"x", b"query", &odd] {
                let pkt = build(s, d, 4000, 53, payload, checksum_on);
                let ih = ipv4::Ipv4Header::new(s, d, proto::UDP, 7, pkt.len());
                assert_eq!(
                    build_datagram(s, d, 4000, 53, 7, payload, checksum_on),
                    ipv4::build_datagram(&ih, &pkt),
                    "checksum {checksum_on}, payload {} bytes",
                    payload.len()
                );
            }
        }
    }

    #[test]
    fn stamped_datagram_equals_built_one() {
        let (s, d) = addrs();
        let odd: Vec<u8> = (0..41u32).map(|i| (i * 7) as u8).collect();
        for payload in [&[0u8; 14][..], &odd] {
            let t = Template::new(s, d, 6000, 9000, payload);
            for ident in 0..=u16::MAX {
                let seq = u64::from(ident).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut want = payload.to_vec();
                want[..8].copy_from_slice(&seq.to_be_bytes());
                assert_eq!(
                    t.stamp(ident, seq),
                    build_datagram(s, d, 6000, 9000, ident, &want, false),
                    "ident {ident}"
                );
            }
        }
    }

    #[test]
    fn empty_payload_ok() {
        let (s, d) = addrs();
        let pkt = build(s, d, 9, 10, b"", true);
        let (h, p) = parse(&pkt).unwrap();
        assert_eq!(h.len as usize, HEADER_LEN);
        assert!(p.is_empty());
        assert!(verify_checksum(s, d, &pkt));
    }
}
