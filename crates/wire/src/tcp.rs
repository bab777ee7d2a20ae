//! TCP segment encoding and parsing, with the MSS option.

use crate::checksum::Checksum;
use crate::{ipv4, proto, Ipv4Addr, WireError};

/// Length of an option-free TCP header.
pub const HEADER_LEN: usize = 20;

/// TCP flag bits.
pub mod flags {
    /// No more data from sender.
    pub const FIN: u8 = 0x01;
    /// Synchronize sequence numbers.
    pub const SYN: u8 = 0x02;
    /// Reset the connection.
    pub const RST: u8 = 0x04;
    /// Push function.
    pub const PSH: u8 = 0x08;
    /// Acknowledgment field is significant.
    pub const ACK: u8 = 0x10;
    /// Urgent pointer field is significant.
    pub const URG: u8 = 0x20;
}

/// A parsed TCP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits (see [`flags`]).
    pub flags: u8,
    /// Advertised receive window.
    pub window: u16,
    /// Maximum segment size option, if present (SYN segments).
    pub mss: Option<u16>,
}

impl TcpHeader {
    /// True if the given flag bit(s) are all set.
    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag == flag
    }

    /// Header length on the wire (with options), in bytes.
    pub fn wire_len(&self) -> usize {
        if self.mss.is_some() {
            HEADER_LEN + 4
        } else {
            HEADER_LEN
        }
    }
}

/// Writes the header (with options) into the front of `seg`, whose
/// remaining bytes are the payload, and checksums the segment in place:
/// the one TCP encoder.
fn encode_in_place(seg: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr, h: &TcpHeader) {
    let hlen = h.wire_len();
    let mut hdr = [0u8; HEADER_LEN + MSS_OPTION_LEN];
    hdr[0..2].copy_from_slice(&h.src_port.to_be_bytes());
    hdr[2..4].copy_from_slice(&h.dst_port.to_be_bytes());
    hdr[4..8].copy_from_slice(&h.seq.to_be_bytes());
    hdr[8..12].copy_from_slice(&h.ack.to_be_bytes());
    hdr[12] = ((hlen / 4) as u8) << 4;
    hdr[13] = h.flags;
    hdr[14..16].copy_from_slice(&h.window.to_be_bytes());
    // hdr[16..18] checksum, zero for now; hdr[18..20] urgent pointer (unused).
    if let Some(mss) = h.mss {
        hdr[20] = 2; // Kind: MSS.
        hdr[21] = 4; // Length.
        hdr[22..24].copy_from_slice(&mss.to_be_bytes());
    }
    // Fixed-length copies: a variable one is a `memcpy` call per segment.
    seg[..HEADER_LEN].copy_from_slice(&hdr[..HEADER_LEN]);
    if hlen > HEADER_LEN {
        seg[HEADER_LEN..hlen].copy_from_slice(&hdr[HEADER_LEN..]);
    }
    let mut c = Checksum::new();
    c.add_pseudo_header(src, dst, proto::TCP, seg.len() as u16);
    c.add(seg);
    let sum = c.finish();
    seg[16..18].copy_from_slice(&sum.to_be_bytes());
}

/// Length of the MSS option, the only option this module writes.
const MSS_OPTION_LEN: usize = 4;

/// Bytes in front of a [`PayloadBuf`]'s payload: an IPv4 header and an
/// option-free TCP header.
pub const HEADROOM: usize = ipv4::HEADER_LEN + HEADER_LEN;

/// A segment payload in frame-arena storage, with [`HEADROOM`] bytes in
/// front of it for the headers, so framing it writes the headers in
/// place and never moves the payload.
///
/// Derefs to exactly the payload bytes; equality is by payload content.
/// The storage goes back to the arena when the buffer drops, unless
/// [`frame`](Self::frame) turned it into a datagram.
pub struct PayloadBuf(Vec<u8>);

impl PayloadBuf {
    /// An empty payload with room for `cap` bytes. A SYN's MSS option
    /// fits without the storage growing, since it never carries data.
    pub fn with_capacity(cap: usize) -> Self {
        let mut v = crate::buf::storage(HEADROOM + cap.max(MSS_OPTION_LEN));
        v.extend_from_slice(&[0; HEADROOM]);
        PayloadBuf(v)
    }

    /// Appends `bytes` to the payload.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Frames the payload as the datagram `src` → `dst` carrying header
    /// `h` in IP datagram `ident`: both headers are written into the
    /// headroom and the segment is checksummed where it lies. A SYN's
    /// MSS option is inserted in front of the (empty) payload first.
    pub fn frame(mut self, src: Ipv4Addr, dst: Ipv4Addr, h: &TcpHeader, ident: u16) -> Vec<u8> {
        let mut v = std::mem::take(&mut self.0);
        if h.mss.is_some() {
            v.splice(HEADROOM..HEADROOM, [0; MSS_OPTION_LEN]);
        }
        let (ip, seg) = v.split_at_mut(ipv4::HEADER_LEN);
        let ih = ipv4::Ipv4Header::new(src, dst, proto::TCP, ident, seg.len());
        ip.copy_from_slice(&ih.encode());
        encode_in_place(seg, src, dst, h);
        v
    }
}

impl std::ops::Deref for PayloadBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0[HEADROOM..]
    }
}

impl Drop for PayloadBuf {
    fn drop(&mut self) {
        crate::buf::recycle(std::mem::take(&mut self.0));
    }
}

impl Clone for PayloadBuf {
    fn clone(&self) -> Self {
        PayloadBuf::from(&**self)
    }
}

impl From<&[u8]> for PayloadBuf {
    fn from(bytes: &[u8]) -> Self {
        let mut p = PayloadBuf::with_capacity(bytes.len());
        p.extend_from_slice(bytes);
        p
    }
}

impl std::fmt::Debug for PayloadBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for PayloadBuf {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PayloadBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == *other
    }
}

/// Encodes a TCP segment (header + options + payload) with a valid
/// checksum.
pub fn build(src: Ipv4Addr, dst: Ipv4Addr, h: &TcpHeader, payload: &[u8]) -> Vec<u8> {
    let mut out = crate::buf::storage(h.wire_len() + payload.len());
    out.resize(h.wire_len(), 0);
    out.extend_from_slice(payload);
    encode_in_place(&mut out, src, dst, h);
    out
}

/// Builds a complete IP datagram carrying a TCP segment: the payload is
/// copied once into a [`PayloadBuf`], which is then framed in place.
pub fn build_datagram(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    h: &TcpHeader,
    ident: u16,
    payload: &[u8],
) -> Vec<u8> {
    PayloadBuf::from(payload).frame(src, dst, h, ident)
}

/// Parses a TCP segment into `(header, payload)`.
///
/// Unknown options are skipped; only MSS is surfaced.
pub fn parse(bytes: &[u8]) -> Result<(TcpHeader, &[u8]), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let data_off = (bytes[12] >> 4) as usize * 4;
    if data_off < HEADER_LEN || data_off > bytes.len() {
        return Err(WireError::Malformed);
    }
    let mut mss = None;
    let mut opt = &bytes[HEADER_LEN..data_off];
    while !opt.is_empty() {
        match opt[0] {
            0 => break,           // End of options.
            1 => opt = &opt[1..], // NOP.
            2 => {
                if opt.len() < 4 || opt[1] != 4 {
                    return Err(WireError::Malformed);
                }
                mss = Some(u16::from_be_bytes([opt[2], opt[3]]));
                opt = &opt[4..];
            }
            _ => {
                if opt.len() < 2 || opt[1] < 2 || (opt[1] as usize) > opt.len() {
                    return Err(WireError::Malformed);
                }
                opt = &opt[opt[1] as usize..];
            }
        }
    }
    let h = TcpHeader {
        src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
        dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
        seq: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        ack: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        flags: bytes[13] & 0x3F,
        window: u16::from_be_bytes([bytes[14], bytes[15]]),
        mss,
    };
    Ok((h, &bytes[data_off..]))
}

/// Reads just the `(src_port, dst_port)` pair without checksum validation.
///
/// The minimal parse for the demux fast path.
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

/// Verifies a TCP segment's checksum given the enclosing IP addresses.
pub fn verify_checksum(src: Ipv4Addr, dst: Ipv4Addr, tcp_bytes: &[u8]) -> bool {
    if tcp_bytes.len() < HEADER_LEN {
        return false;
    }
    let mut c = Checksum::new();
    c.add_pseudo_header(src, dst, proto::TCP, tcp_bytes.len() as u16);
    c.add(tcp_bytes);
    c.finish() == 0
}

/// Sequence-space comparison: true if `a < b` modulo 2^32 (RFC 793 style).
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// Sequence-space comparison: true if `a <= b` modulo 2^32.
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Sequence-space comparison: true if `a > b` modulo 2^32.
pub fn seq_gt(a: u32, b: u32) -> bool {
    seq_lt(b, a)
}

/// Sequence-space comparison: true if `a >= b` modulo 2^32.
pub fn seq_ge(a: u32, b: u32) -> bool {
    a == b || seq_gt(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
    }

    fn header() -> TcpHeader {
        TcpHeader {
            src_port: 3000,
            dst_port: 80,
            seq: 0xDEADBEEF,
            ack: 0x12345678,
            flags: flags::ACK | flags::PSH,
            window: 32 * 1024 - 1,
            mss: None,
        }
    }

    #[test]
    fn roundtrip_no_options() {
        let (s, d) = addrs();
        let h = header();
        let seg = build(s, d, &h, b"GET /");
        assert!(verify_checksum(s, d, &seg));
        let (ph, p) = parse(&seg).unwrap();
        assert_eq!(ph, h);
        assert_eq!(p, b"GET /");
    }

    #[test]
    fn roundtrip_with_mss() {
        let (s, d) = addrs();
        let mut h = header();
        h.flags = flags::SYN;
        h.mss = Some(9148);
        let seg = build(s, d, &h, b"");
        assert!(verify_checksum(s, d, &seg));
        let (ph, p) = parse(&seg).unwrap();
        assert_eq!(ph.mss, Some(9148));
        assert!(ph.has(flags::SYN));
        assert!(p.is_empty());
    }

    #[test]
    fn corrupt_fails_checksum() {
        let (s, d) = addrs();
        let mut seg = build(s, d, &header(), b"data");
        seg[4] ^= 0x80; // Flip a sequence bit.
        assert!(!verify_checksum(s, d, &seg));
    }

    #[test]
    fn parse_rejects_bad_offset() {
        let (s, d) = addrs();
        let mut seg = build(s, d, &header(), b"");
        seg[12] = 0x40; // Data offset 4 words (< minimum 5).
        assert_eq!(parse(&seg), Err(WireError::Malformed));
    }

    #[test]
    fn parse_skips_unknown_options() {
        let (s, d) = addrs();
        let h = header();
        let mut seg = build(s, d, &h, b"");
        // Rebuild with a fake 4-byte unknown option (kind 200) + padding.
        let mut with_opts = seg[..20].to_vec();
        with_opts[12] = 0x60; // 6 words = 24 bytes.
        with_opts.extend_from_slice(&[200, 4, 0, 0]);
        seg = with_opts;
        let (ph, _) = parse(&seg).unwrap();
        assert_eq!(ph.mss, None);
        assert_eq!(ph.src_port, 3000);
    }

    #[test]
    fn full_datagram_parse() {
        let (s, d) = addrs();
        let dgram = build_datagram(s, d, &header(), 42, b"hello");
        let (ih, ip_payload) = ipv4::parse(&dgram).unwrap();
        assert_eq!(ih.proto, proto::TCP);
        assert!(verify_checksum(s, d, ip_payload));
        let (th, body) = parse(ip_payload).unwrap();
        assert_eq!(th.dst_port, 80);
        assert_eq!(body, b"hello");
    }

    #[test]
    fn single_buffer_datagram_equals_layered_build() {
        let (s, d) = addrs();
        let mut syn = header();
        syn.flags = flags::SYN;
        syn.mss = Some(9140);
        let odd: Vec<u8> = (0..9139u32).map(|i| (i * 7) as u8).collect();
        for h in [header(), syn] {
            for payload in [&b""[..], b"x", b"hello", &odd] {
                let seg = build(s, d, &h, payload);
                let ih = ipv4::Ipv4Header::new(s, d, proto::TCP, 42, seg.len());
                assert_eq!(
                    build_datagram(s, d, &h, 42, payload),
                    ipv4::build_datagram(&ih, &seg),
                    "mss {:?}, payload {} bytes",
                    h.mss,
                    payload.len()
                );
            }
        }
    }

    #[test]
    fn framing_writes_the_headers_without_moving_the_payload() {
        let (s, d) = addrs();
        let mut syn = header();
        syn.flags = flags::SYN;
        syn.mss = Some(9140);
        for (h, payload) in [(header(), &b"hello"[..]), (syn, b"")] {
            let p = PayloadBuf::from(payload);
            assert_eq!(&*p, payload);
            let (at, cap) = (p.as_ptr(), p.0.capacity());
            let dgram = p.frame(s, d, &h, 42);
            assert_eq!(dgram.capacity(), cap, "framed without growing");
            let body = &dgram[HEADROOM + h.wire_len() - HEADER_LEN..];
            assert_eq!(body, payload);
            if !payload.is_empty() {
                assert_eq!(body.as_ptr(), at, "payload framed where it lay");
            }
            assert_eq!(dgram, build_datagram(s, d, &h, 42, payload));
        }
    }

    #[test]
    fn seq_space_comparisons() {
        assert!(seq_lt(1, 2));
        assert!(!seq_lt(2, 1));
        assert!(seq_lt(u32::MAX, 0), "wraparound");
        assert!(seq_gt(0, u32::MAX));
        assert!(seq_le(5, 5));
        assert!(seq_ge(5, 5));
        assert!(seq_lt(0x7FFFFFFF, 0x80000000));
    }

    #[test]
    fn flags_helper() {
        let mut h = header();
        h.flags = flags::SYN | flags::ACK;
        assert!(h.has(flags::SYN));
        assert!(h.has(flags::SYN | flags::ACK));
        assert!(!h.has(flags::FIN));
    }
}
