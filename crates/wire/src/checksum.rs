//! The Internet checksum (RFC 1071).
//!
//! Used by IPv4 headers, and by UDP/TCP together with the pseudo-header.

use crate::Ipv4Addr;

/// Accumulates 16-bit one's-complement sums over byte slices.
///
/// The sum is kept in *native* byte order and swapped once in
/// [`finish`](Self::finish): the one's-complement sum is byte-order
/// independent (RFC 1071 §2(B)), so summing the words as the machine
/// loads them and swapping the folded result equals summing big-endian
/// words. That lets [`add`](Self::add) load eight bytes at a time and
/// sum their 32-bit halves into independent 64-bit lanes (§2(C),
/// parallel summation) instead of byte-swapping every 16-bit word.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checksum {
    /// Native-order partial sum; every `add` folds it back below 2^33.
    sum: u64,
    /// High byte of a half-filled 16-bit word: set when an odd number of
    /// bytes has been fed so far (RFC 1071 incremental update).
    odd: Option<u8>,
}

/// The 16-bit word with `hi` first in memory, as a native-order addend.
#[inline]
fn word(hi: u8, lo: u8) -> u64 {
    u16::from_ne_bytes([hi, lo]) as u64
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Checksum::default()
    }

    /// Feeds bytes into the sum. Slices of any length may be added in any
    /// split: an odd trailing byte is held as the high half of the next
    /// 16-bit word and paired with the first byte of the following slice,
    /// so arbitrary chunkings fold to the single-shot checksum.
    pub fn add(&mut self, mut bytes: &[u8]) {
        let mut sum = self.sum;
        if let Some(hi) = self.odd.take() {
            match bytes.split_first() {
                Some((&lo, rest)) => {
                    sum += word(hi, lo);
                    bytes = rest;
                }
                None => {
                    self.odd = Some(hi);
                    return;
                }
            }
        }
        let mut blocks = bytes.chunks_exact(32);
        if blocks.len() > 0 {
            // Four independent lanes, each fed the two 32-bit halves of
            // one 64-bit load: at most 2^33 per 32-byte block, so a lane
            // cannot overflow below 64 GiB of input.
            let mut lanes = [0u64; 4];
            for block in &mut blocks {
                for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                    let w = u64::from_ne_bytes(w.try_into().expect("8-byte chunk"));
                    *lane += (w & 0xFFFF_FFFF) + (w >> 32);
                }
            }
            for lane in lanes {
                sum += (lane & 0xFFFF_FFFF) + (lane >> 32);
            }
        }
        let mut rest = blocks.remainder();
        while let Some((w, tail)) = rest.split_first_chunk::<4>() {
            sum += u32::from_ne_bytes(*w) as u64;
            rest = tail;
        }
        if let Some((&[hi, lo], tail)) = rest.split_first_chunk::<2>() {
            sum += word(hi, lo);
            rest = tail;
        }
        if let [last] = rest {
            self.odd = Some(*last);
        }
        self.sum = (sum & 0xFFFF_FFFF) + (sum >> 32);
    }

    /// Feeds one big-endian 16-bit word.
    pub fn add_u16(&mut self, v: u16) {
        self.add(&v.to_be_bytes());
    }

    /// Feeds the UDP/TCP pseudo-header.
    pub fn add_pseudo_header(&mut self, src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) {
        if self.odd.is_some() {
            // Mid-word: the twelve bytes pair up one byte later.
            let [len_hi, len_lo] = len.to_be_bytes();
            self.add(&src.octets());
            self.add(&dst.octets());
            self.add(&[0, proto, len_hi, len_lo]);
            return;
        }
        // Word-aligned (the usual case, the pseudo-header comes first):
        // its six words are summed from registers, not through memory.
        self.sum += u32::from_ne_bytes(src.octets()) as u64
            + u32::from_ne_bytes(dst.octets()) as u64
            + word(0, proto)
            + u16::from_ne_bytes(len.to_be_bytes()) as u64;
    }

    /// Finalizes to the one's-complement checksum value. A pending odd
    /// byte is zero-padded here, matching RFC 1071's treatment of a
    /// trailing odd byte.
    pub fn finish(self) -> u16 {
        let mut s = self.sum;
        if let Some(hi) = self.odd {
            s += word(hi, 0);
        }
        while s >> 16 != 0 {
            s = (s & 0xFFFF) + (s >> 16);
        }
        // The one byte swap: native-order sum to the big-endian value.
        // Zero and 0xFFFF are their own swaps, so an all-zero input still
        // yields 0xFFFF and a sum of 0xFFFF still yields 0.
        !u16::from_be(s as u16)
    }
}

/// Checksum of a single contiguous buffer.
pub fn checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add(bytes);
    c.finish()
}

/// Verifies a buffer whose checksum field is already in place: the folded
/// sum over the whole buffer must be zero.
pub fn verify(bytes: &[u8]) -> bool {
    let mut c = Checksum::new();
    c.add(bytes);
    c.finish() == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: big-endian 16-bit words summed one at a time, with
    /// the same odd-byte carry across chunks (the loop `Checksum::add`
    /// was before it went wide).
    fn reference(chunks: &[&[u8]]) -> u16 {
        let mut sum = 0u32;
        let mut odd: Option<u8> = None;
        for &chunk in chunks {
            for &b in chunk {
                match odd.take() {
                    Some(hi) => sum += u16::from_be_bytes([hi, b]) as u32,
                    None => odd = Some(b),
                }
                sum = (sum & 0xFFFF) + (sum >> 16);
            }
        }
        if let Some(hi) = odd {
            sum += u16::from_be_bytes([hi, 0]) as u32;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    fn chunked(chunks: &[&[u8]]) -> u16 {
        let mut c = Checksum::new();
        for chunk in chunks {
            c.add(chunk);
        }
        c.finish()
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = proptest::TestRng::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn rfc1071_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
        assert_eq!(reference(&[&data]), !0xddf2);
    }

    #[test]
    fn every_short_length_split_and_alignment_matches_reference() {
        // Offsets 0..=7 into one allocation move the data across every
        // alignment an 8-byte load can meet.
        let backing = noise(129 + 8, 1);
        for offset in 0..=7 {
            for len in 0..=129 {
                let data = &backing[offset..offset + len];
                let want = reference(&[data]);
                assert_eq!(checksum(data), want, "len {len} offset {offset}");
                for split in 0..=len {
                    let (a, b) = data.split_at(split);
                    assert_eq!(
                        chunked(&[a, b]),
                        want,
                        "len {len} offset {offset} split {split}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_buffers_hit_the_zero_and_all_ones_corner() {
        for len in [0usize, 1, 2, 3, 20, 31, 32, 33, 64, 1500, 9160, 65_535] {
            // All zero: the sum is 0, its complement 0xFFFF.
            let zeros = vec![0u8; len];
            assert_eq!(checksum(&zeros), 0xFFFF, "zeros len {len}");
            assert_eq!(checksum(&zeros), reference(&[&zeros]));
            // All ones: every word is 0xFFFF, which folds to 0xFFFF (an
            // odd tail adds 0xFF00); 65 535 bytes of it is also the most
            // a 16-bit length can feed the wide accumulators, which must
            // not trip a debug-build overflow check.
            let ones = vec![0xFFu8; len];
            assert_eq!(checksum(&ones), reference(&[&ones]), "ones len {len}");
            if len >= 2 && len % 2 == 0 {
                assert_eq!(checksum(&ones), 0, "ones len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn random_chunkings_match_reference(
            len in 0usize..=65_535,
            seed in any::<u64>(),
            cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..12),
        ) {
            let data = noise(len, seed);
            let mut at: Vec<usize> = cuts.iter().map(|c| c.index(len + 1)).collect();
            at.push(0);
            at.push(len);
            at.sort_unstable();
            let chunks: Vec<&[u8]> = at.windows(2).map(|w| &data[w[0]..w[1]]).collect();
            let want = reference(&[&data]);
            prop_assert_eq!(reference(&chunks), want);
            prop_assert_eq!(chunked(&chunks), want);
            prop_assert_eq!(checksum(&data), want);
        }
    }

    #[test]
    fn verify_roundtrip() {
        let mut data = vec![1u8, 2, 3, 4, 5, 6, 0, 0, 9, 10];
        let c = checksum(&data);
        data[6..8].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0xFF;
        assert!(!verify(&data));
    }

    #[test]
    fn odd_length_padding() {
        // Checksum of [0xAB] equals checksum of [0xAB, 0x00].
        assert_eq!(checksum(&[0xAB]), checksum(&[0xAB, 0x00]));
    }

    #[test]
    fn incremental_matches_single_shot() {
        let data: Vec<u8> = (0..100u8).collect();
        let mut inc = Checksum::new();
        inc.add(&data[..40]);
        inc.add(&data[40..]);
        assert_eq!(inc.finish(), checksum(&data));
    }

    #[test]
    fn odd_interior_slice_carries_byte() {
        // [0xAB] then [0xCD] is the word 0xABCD, not 0xAB00 + 0xCD00.
        let mut inc = Checksum::new();
        inc.add(&[0xAB]);
        inc.add(&[0xCD]);
        assert_eq!(inc.finish(), checksum(&[0xAB, 0xCD]));
    }

    #[test]
    fn empty_slice_preserves_pending_odd_byte() {
        let mut inc = Checksum::new();
        inc.add(&[0xAB]);
        inc.add(&[]);
        inc.add(&[0xCD, 0x01]);
        assert_eq!(inc.finish(), checksum(&[0xAB, 0xCD, 0x01]));
    }

    #[test]
    fn add_u16_after_odd_byte_stays_aligned() {
        let mut inc = Checksum::new();
        inc.add(&[0x12]);
        inc.add_u16(0x3456);
        assert_eq!(inc.finish(), checksum(&[0x12, 0x34, 0x56]));
    }

    #[test]
    fn many_odd_slices_match_single_shot() {
        let data: Vec<u8> = (0..25u8).map(|b| b.wrapping_mul(37)).collect();
        let mut inc = Checksum::new();
        for chunk in data.chunks(3) {
            inc.add(chunk);
        }
        assert_eq!(inc.finish(), checksum(&data));
    }

    #[test]
    fn pseudo_header_contributes() {
        let src = Ipv4Addr::new(192, 168, 0, 1);
        let dst = Ipv4Addr::new(192, 168, 0, 2);
        let mut a = Checksum::new();
        a.add_pseudo_header(src, dst, 17, 8);
        a.add(b"datagram");
        let mut b = Checksum::new();
        b.add(b"datagram");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn pseudo_header_equals_its_twelve_bytes_at_either_alignment() {
        let src = Ipv4Addr::new(192, 168, 0, 1);
        let dst = Ipv4Addr::new(10, 255, 7, 200);
        let ph = [192, 168, 0, 1, 10, 255, 7, 200, 0, 6, 0x23, 0xC8];
        let body = noise(77, 3);
        for lead in [&[][..], &[0xAB]] {
            let mut c = Checksum::new();
            c.add(lead);
            c.add_pseudo_header(src, dst, 6, 0x23C8);
            c.add(&body);
            assert_eq!(c.finish(), reference(&[lead, &ph, &body]), "lead {lead:?}");
        }
    }

    #[test]
    fn zero_buffer_checksum() {
        assert_eq!(checksum(&[0u8; 20]), 0xFFFF);
        assert_eq!(checksum(&[]), 0xFFFF);
    }
}
